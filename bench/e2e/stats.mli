(** Statistics the end-to-end benchmark reports, kept apart from the
    harness so they can be unit-tested without a daemon.

    Times are seconds on one monotonic clock unless a name says [_ms] or
    [_us]. *)

(** {2 Percentiles} *)

val median : float array -> float
(** Median of any non-empty sample (mean of the middle two for even
    sizes).  Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float option
(** [percentile xs q] is the nearest-rank [q]-quantile of [xs], or
    [None] when fewer than ten samples lie beyond it ([n (1 - q) < 10]):
    a p99 needs at least 1000 samples, a median at least 20. *)

val window_quantile :
  q:float -> window_s:float -> span_s:float -> (float * float) array -> float option
(** [window_quantile ~q ~window_s ~span_s samples] takes [(t, latency)]
    pairs with [t] in [\[0, span_s)], cuts that span into windows of
    [window_s] seconds (a trailing partial window joins the one before
    it), and returns the median over windows of each window's
    [q]-quantile.  [None] when any window cannot support the quantile
    (see {!percentile}: a p99 needs 1000 samples in every window). *)

(** {2 Request records} *)

type outcome = Answered | Shed | Timed_out | Failed
(** [Failed]: an error reply or a transport failure. *)

type request = { due : float; sent : float; finished : float; outcome : outcome }
(** One request of an open-loop schedule: when it was due, when the
    generator actually sent it, and when its reply arrived. *)

val latency_ms : request -> float
(** Time from {e due} to reply: a stall delays every request due behind
    it, and this charges them for it. *)

val late_ms : request -> float
(** How late the generator sent the request ([0] when on time). *)

val slo_attainment : limit_ms:float -> request array -> float
(** Share of the requests sent that were answered with a plan within
    [limit_ms]; shed, timed-out and failed requests are misses.  [0] for
    an empty array. *)

val error_rate : request array -> float
(** Share of the requests sent that got no plan. *)

(** {2 Rate ladder} *)

type step = { rate : float; sent : int; failed : int; over_limit : int }
(** One constant-rate step: requests sent, requests without a plan, and
    answered requests slower than the latency limit. *)

val step_passes : step -> bool
(** No failures, and at most 1% of the requests sent over the limit —
    "p99 within the limit" counted directly, so it holds at any sample
    size. *)

val ladder : start:float -> max_rate:float -> (float -> step) -> float * step list
(** Find the highest sustainable rate: double from [start] (up to
    [max_rate]) until a step fails after one has passed, then climb by
    ×1.1 from the last passing rate until a step fails.  Failures before
    the first pass do not stop the sweep: an idle host can wake too
    slowly for a limit that a busier one meets.  Returns the highest
    passing rate ([0] when none passes) and every step run, in order. *)

(** {2 Plan quality} *)

type quality = { speedup : float; met_share : float; violation_rate : float }

val quality : (float * float * float) array -> quality
(** Over [(measured speedup, measured QoS degradation, budget)] per plan:
    the geometric-mean speedup, the share of plans whose measured QoS
    stays within budget, and its complement.  Raises [Invalid_argument]
    on an empty array. *)
