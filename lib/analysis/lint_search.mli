(** Stochastic-search outcome rules (codes [SRCH***]).

    The multi-chain MCMC driver ({!Opprox.Search}) audits its
    best-of-chains result through {!check} before it builds a plan, the
    same way the optimizer audits its output through {!Lint_plan}.  The
    rules judge the {e search outcome}, not the plan — the plan itself
    still goes through the full [PLAN***] audit afterwards. *)

type view = {
  app_name : string;
  budget : float;  (** total conservative-QoS budget the chains ran under *)
  chain_costs : float array;
      (** best feasible cost reached by each chain, in chain order;
          [nan] for a chain that never visited a feasible schedule *)
  best_cost : float;  (** cost of the schedule the driver is returning *)
  best_qos_hi : float;  (** conservative QoS of that schedule *)
  feasible : bool;  (** at least one chain visited a feasible schedule *)
}

val divergence_threshold : float
(** Relative spread of per-chain best costs above which the chains are
    considered diverged (default 0.10): a spread this wide means the
    iteration budget was too small for the chains to agree on a basin. *)

val check : view -> Diagnostic.t list
(** [SRCH001] ([Warning]): feasible chain best costs spread more than
    {!divergence_threshold} relative to the best — raise [--iters] or
    [--chains].  [SRCH002] ([Warning]): no chain ever visited a feasible
    schedule; the driver falls back to the all-exact schedule (always
    feasible for a non-negative budget).  [SRCH003] ([Error]): the
    returned best claims feasibility but its conservative QoS exceeds the
    budget — a cost-function or bookkeeping bug, never expected. *)
