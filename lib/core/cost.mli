(** Schedule cost for the stochastic search (minimized).

    The chain prices whole schedules through the {e models}, never the
    simulator: one {!t} compiles the models' hoisted prediction pipeline
    ({!Models.predictor}) plus a (phase, levels) memo, exactly like
    the optimizer's solver, so the MCMC inner loop costs a hashtable hit
    for every point it revisits.  A [t] wraps mutable scratch and a
    single-domain predictor — build one per chain, never share one across
    domains. *)

type eval = {
  cost : float;
      (** [-. compose_speedup speedup_lo's +. penalty *. overrun]: lower
          is better; a feasible schedule's cost is the negated composed
          conservative speedup *)
  speedup : float;  (** composed point-estimate speedup *)
  speedup_lo : float;  (** composed conservative (lower-CI) speedup *)
  qos_hi : float;  (** summed conservative per-phase QoS degradation *)
  feasible : bool;  (** [qos_hi <= budget] (small relative slack) *)
}

type t

val penalty : float
(** Weight of the over-budget term (10.0 per percentage point of
    conservative-QoS overrun).  Large enough that no infeasible schedule
    ever outranks a feasible one on this problem's speedup scale, small
    enough that chains can traverse shallow violations while hot. *)

val make : models:Models.t -> input:float array -> budget:float -> t
(** Compile the pricing pipeline for one (models, input, budget). *)

val eval : t -> int array array -> eval
(** Price one [n_phases x n_abs] schedule.  Deterministic: equal
    schedules always yield equal evals. *)

val budget : t -> float
val n_phases : t -> int
val abs : t -> Opprox_sim.Ab.t array
