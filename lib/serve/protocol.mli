(** Wire protocol of the plan-serving daemon.

    One frame is a 4-byte big-endian payload length followed by that many
    bytes of s-expression text ({!Opprox_util.Sexp}); requests and
    replies are records carrying an explicit protocol version [(v 1)].
    Length-prefixed framing keeps the parser trivial and makes frame
    boundaries survive malformed payloads: a server that fails to decode
    one frame can reply with a structured [SRV004] error and keep the
    connection.

    A request names an application, a QoS degradation budget (percent,
    like the whole pipeline), and optionally an input vector, a deadline,
    a client-asserted models hash, and a cache bypass.  A reply is one of
    four shapes: a plan (with its prediction, cache status, and the hash
    of the models that produced it), a structured diagnostic error, a
    deadline miss, or an overload shed.

    {2 Frame layout}

    {v
    +----------+----------------------------------------+
    | len: u32 | payload: len bytes of sexp text        |
    |  (BE)    | ((v 1) (app kmeans) (budget 10) ...)   |
    +----------+----------------------------------------+
    v}

    Payloads above {!max_frame_bytes} are rejected without being read —
    a garbage length prefix must not allocate gigabytes. *)

val version : int
(** The protocol version this build speaks (1). *)

val max_frame_bytes : int
(** Upper bound on a payload (16 MiB). *)

type request = {
  app : string;
  input : float array option;  (** [None]: the app's default input *)
  budget : float;  (** percent QoS degradation, in (0, 100] *)
  deadline_ms : float option;
      (** reply-by budget, measured from frame receipt; [None] defers to
          the server's default *)
  models_hash : string option;
      (** assert the server's models match what the client planned
          against ([SRV003] on mismatch) *)
  no_cache : bool;
      (** bypass the plan-cache lookup (the solve still populates it) *)
}

val request :
  ?input:float array ->
  ?deadline_ms:float ->
  ?models_hash:string ->
  ?no_cache:bool ->
  app:string ->
  budget:float ->
  unit ->
  request

type cache_status =
  | Corpus  (** exact fingerprint hit in the precomputed plan corpus *)
  | Nearest
      (** nearest-neighbour corpus cell: the plan of the largest grid
          budget at or below the requested one (never looser) *)
  | Hit  (** in-memory sharded-LRU hit *)
  | Miss  (** freshly solved (possibly coalesced onto another solve) *)

val cache_status_string : cache_status -> string
(** Wire naming: [corpus], [nn], [hit], [miss]. *)

val cache_source_string : cache_status -> string
(** User-facing naming: [corpus], [nn], [cache], [solved]. *)

type telemetry = {
  t_app : string;  (** application the controlled run executes *)
  t_input : float array option;
      (** the input the run is executing on ([None]: the app's default) —
          the server re-solves against {e this} input, not the one the
          original plan was built for *)
  plan_budget : float;  (** the plan's total QoS budget (percent) *)
  phase : int;  (** phase that just completed *)
  n_phases : int;
  drift : float;  (** relative work drift the controller observed *)
  drift_tol : float;
      (** the controller's tolerance; the server answers [No_change] when
          [drift <= drift_tol], so retransmitted or below-threshold frames
          are cheap *)
  observed_work : float;
  predicted_work : float;
  remaining_budget : float;  (** budget left for the remaining phases *)
}
(** One phase-boundary report from a controlled run (streaming
    recontrol).  On the wire it is a [(kind telemetry)] frame — plan
    requests stay untagged — so one connection can interleave plan
    requests and telemetry. *)

val telemetry :
  ?input:float array ->
  app:string ->
  plan_budget:float ->
  phase:int ->
  n_phases:int ->
  drift:float ->
  drift_tol:float ->
  observed_work:float ->
  predicted_work:float ->
  remaining_budget:float ->
  unit ->
  telemetry

type plan_delta =
  | No_change  (** keep executing the current schedule *)
  | Replan of { from_phase : int; plan : Opprox.Optimizer.plan }
      (** adopt [plan]'s phases at and after [from_phase]; phases before
          it are already executed and never change *)
(** The server's verdict on one telemetry frame. *)

type response =
  | Plan of {
      plan : Opprox.Optimizer.plan;
      cache : cache_status;
      models_hash : string;  (** hash of the models that solved it *)
      elapsed_ms : float;
    }
  | PlanDelta of { delta : plan_delta; elapsed_ms : float }
      (** reply to a telemetry frame *)
  | Error of Opprox_analysis.Diagnostic.t list
      (** boundary validation or solve failure; every diagnostic carries
          a stable [SRV***] (or [PLAN***]) code *)
  | Timeout of { elapsed_ms : float; deadline_ms : float }
  | Overloaded of { inflight : int; limit : int }

(** {2 Codecs} *)

val request_to_sexp : request -> Opprox_util.Sexp.t

val request_of_sexp : Opprox_util.Sexp.t -> request
(** Raises [Failure] on a malformed record.  A missing [(v N)] field is
    treated as the current version — hand-written batch files need not
    carry it — but a {e present} mismatched version must be rejected by
    the caller (see {!frame_version}). *)

val frame_version : Opprox_util.Sexp.t -> int
(** The [(v N)] field of a frame, defaulting to {!version} when absent. *)

val frame_kind : Opprox_util.Sexp.t -> string
(** The [(kind K)] field of a frame; ["request"] when absent (plan
    requests predate the tag and stay untagged on the wire). *)

val telemetry_to_sexp : telemetry -> Opprox_util.Sexp.t

val telemetry_of_sexp : Opprox_util.Sexp.t -> telemetry
(** Raises [Failure] on a malformed record or a frame whose [kind] is not
    [telemetry]. *)

val response_to_sexp : response -> Opprox_util.Sexp.t

val response_of_sexp : Opprox_util.Sexp.t -> response
(** Raises [Failure] on a malformed record. *)

(** {2 Framing} *)

val encode_frame : Opprox_util.Sexp.t -> string
(** One frame — length prefix and payload — as the bytes to put on the
    wire, for callers that write on their own schedule (the server's
    non-blocking sockets).  Raises [Failure] on a payload above
    {!max_frame_bytes}. *)

val write_frame : Unix.file_descr -> Opprox_util.Sexp.t -> unit
(** Write one length-prefixed frame; loops over partial writes.  Raises
    [Unix.Unix_error] on transport failure. *)

val write_raw_frame : Unix.file_descr -> string -> unit
(** Frame arbitrary bytes without sexp validation — deliberately
    malformed payloads for testing the server's [SRV004] path. *)

val read_frame : Unix.file_descr -> Opprox_util.Sexp.t option
(** Read one frame.  [None] on clean EOF at a frame boundary; raises
    [Failure] on a truncated frame, an oversized length prefix, or an
    unparseable payload, and [Unix.Unix_error] on transport failure
    (including a receive timeout). *)

(** Incremental framing for non-blocking readers.

    A splitter owns one connection's read buffer: each {!Splitter.read}
    appends whatever a single [read] returns, and {!Splitter.next} hands
    out complete frames in order, so a frame that arrives in pieces never
    blocks the caller.  The checks are {!read_frame}'s: an out-of-range
    length prefix fails as soon as its 4 bytes are in, before anything is
    allocated for the payload. *)
module Splitter : sig
  type t

  val create : unit -> t

  val read : t -> Unix.file_descr -> int
  (** One [Unix.read] into the buffer (growing it when the frame at its
      head needs room); returns the byte count, [0] at EOF.  Raises
      [Unix.Unix_error] as [Unix.read] does, [EAGAIN] included. *)

  val next : t -> Opprox_util.Sexp.t option
  (** The next complete frame, removed from the buffer; [None] until one
      is complete.  Raises [Failure] on an oversized length prefix or an
      unparseable payload. *)

  val finish : t -> unit
  (** Call at EOF once {!next} returns [None]: raises [Failure] with
      {!read_frame}'s truncation message when a partial frame is left. *)
end
