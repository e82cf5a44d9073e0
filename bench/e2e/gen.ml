(* Open-loop load generator over one client connection.

   The schedule is fixed before the first send.  A request is sent when
   it is due, or as soon as the connection is free when an earlier reply
   held it up; either way its latency counts from when it was due, so a
   stall is charged to every request queued behind it. *)

module Client = Opprox_serve.Client
module Protocol = Opprox_serve.Protocol

type record = {
  shot : Keys.shot;
  r : Stats.request;
  source : Protocol.cache_status option;  (** [None]: no plan *)
  elapsed_us : float;  (** the daemon's own time, from the reply; [nan] without a plan *)
  plan : Opprox.Optimizer.plan option;  (** kept for every [keep_every]-th reply only *)
}

(* Sleep to just short of [t], then spin: a sleep overshoots by up to the
   kernel's 50 us timer slack, half a cached reply.  The spin stays short
   so the daemon keeps the other core. *)
let wait_until t =
  let rec go () =
    let d = t -. Host.now_s () in
    if d > 150e-6 then begin
      Unix.sleepf (d -. 100e-6);
      go ()
    end
    else if d > 0.0 then go ()
  in
  go ()

(* Run [shots] (due times relative to [t0]), keeping the plans of every
   [keep_every]-th reply for checking. *)
let run ?(keep_every = max_int) client ~t0 shots =
  Array.mapi
    (fun i (shot : Keys.shot) ->
      let due = t0 +. shot.due in
      wait_until due;
      let sent = Host.now_s () in
      let reply =
        try Some (Client.request client shot.req) with Failure _ | Unix.Unix_error _ -> None
      in
      let record outcome =
        {
          shot;
          r = { Stats.due; sent; finished = Host.now_s (); outcome };
          source = None;
          elapsed_us = Float.nan;
          plan = None;
        }
      in
      match reply with
      | Some (Protocol.Plan { plan; cache; elapsed_ms; _ }) ->
          {
            (record Stats.Answered) with
            source = Some cache;
            elapsed_us = elapsed_ms *. 1000.0;
            plan = (if i mod keep_every = 0 then Some plan else None);
          }
      | Some (Protocol.Overloaded _) -> record Stats.Shed
      | Some (Protocol.Timeout _) -> record Stats.Timed_out
      | Some (Protocol.Error _ | Protocol.PlanDelta _) | None -> record Stats.Failed)
    shots

(* One constant-rate step of a rate ladder. *)
let step client ~limit_ms ~rate shots =
  let records = run client ~t0:(Host.now_s ()) shots in
  let count p = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 records in
  {
    Stats.rate;
    sent = Array.length records;
    failed = count (fun x -> x.r.outcome <> Stats.Answered);
    over_limit =
      count (fun x -> x.r.outcome = Stats.Answered && Stats.latency_ms x.r > limit_ms);
  }
