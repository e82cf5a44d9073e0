(** Phase-granularity search (paper Sec. 3.5, Algorithm 1).

    Starting from two phases, the search doubles the phase count while
    the change in the maximum QoS-degradation difference between
    consecutive phases stays above a sensitivity threshold.  Too few
    phases hide distinct error regimes; too many multiply the training
    cost while consecutive phases become indistinguishable (paper
    Fig. 11). *)

type probe_result = {
  n_phases : int;
  mean_qos_per_phase : float array;
      (** mean measured QoS degradation of approximating only that phase *)
  max_consecutive_diff : float;
      (** getMaxQoSDiff: the largest |mean(p+1) - mean(p)| *)
}

val probe : ?samples_per_phase:int -> ?seed:int -> Opprox_sim.App.t -> n_phases:int -> probe_result
(** The helper getMaxQoSDiff: run the application's default input with
    [samples_per_phase] (default 8) random AL vectors active in one phase
    at a time and aggregate the per-phase mean QoS degradations.  The
    runs share one {!Opprox_sim.Driver.memo}, dropped on return. *)

val search :
  ?threshold:float ->
  ?max_phases:int ->
  ?samples_per_phase:int ->
  ?seed:int ->
  Opprox_sim.App.t ->
  int * probe_result list
(** Algorithm 1: returns the selected phase count and the probes made
    along the way.  [threshold] (default 1.0 QoS points) is the
    user-provided phase-sensitivity threshold; [max_phases] (default 8)
    bounds the doubling.  All probes share one
    {!Opprox_sim.Driver.memo}, dropped on return. *)
