(* Seeded request schedules for the serving workloads.

   Every workload plans for the same (app, input) pairs: each app's
   default input and its training inputs, the grid the corpus was
   precomputed over.  What differs is where a key sits relative to the
   daemon's lookup layers, so each key class predicts the source that
   must answer it. *)

module Protocol = Opprox_serve.Protocol
module Rng = Opprox_util.Rng

type pair = { app : string; input : float array }

let pairs trained =
  List.concat_map
    (fun tr ->
      List.map
        (fun input -> { app = tr.Opprox.app.Opprox_sim.App.name; input })
        (Opprox_corpus.Precompute.inputs_of tr))
    trained
  |> Array.of_list

(* On-grid keys hit the corpus exactly; off-grid ones (the budget ×1.001
   to ×1.15 above a grid cell) fall back to the cell below; below-grid
   ones have no cell at or below them, so after one solve the LRU answers
   them; fresh keys are solved every time. *)
type cls = On_grid | Off_grid | Below_grid | Fresh

let grid = [| 5.0; 10.0; 20.0 |]
let below_grid = [| 2.5; 3.5; 4.5 |]

(* Budgets of the plans each serving workload's quality is measured on,
   after its reference step. *)
let audit_budgets = [| 2.5; 5.0; 10.0; 20.0 |]

let source = function
  | On_grid -> Protocol.Corpus
  | Off_grid -> Protocol.Nearest
  | Below_grid -> Protocol.Hit
  | Fresh -> Protocol.Miss

type shot = { due : float; req : Protocol.request; cls : cls }

let request (p : pair) budget = Protocol.request ~input:p.input ~app:p.app ~budget ()

let cross pairs budgets =
  Array.concat (Array.to_list (Array.map (fun p -> Array.map (fun b -> (p, b)) budgets) pairs))

(* Zipf(s) over ranks 0..n-1 by inverse CDF. *)
let zipf rng ~s n =
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !total
  done;
  fun () ->
    let u = Rng.float rng !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* Arrivals at [rate] over [\[0, seconds)]: each gap is the share [floor]
   of the mean gap plus an exponential draw of the rest, so [floor = 0]
   gives Poisson arrivals. *)
let arrivals ?(floor = 0.0) rng ~rate ~seconds f =
  let rec go t acc =
    let t = t +. ((floor -. ((1.0 -. floor) *. Float.log (1.0 -. Rng.uniform rng))) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc) else go t (f t :: acc)
  in
  go 0.0 []

(* Lookups only: 50% on-grid, 30% off-grid, 20% below-grid, Zipf 1.1 over
   each class's keys in a fixed rank order. *)
let hot rng pairs ~rate ~seconds =
  let on = cross pairs grid and below = cross pairs below_grid in
  let pick_on = zipf rng ~s:1.1 (Array.length on) in
  let pick_below = zipf rng ~s:1.1 (Array.length below) in
  arrivals rng ~rate ~seconds (fun due ->
      let u = Rng.uniform rng in
      if u < 0.5 then
        let p, b = on.(pick_on ()) in
        { due; req = request p b; cls = On_grid }
      else if u < 0.8 then
        let p, b = on.(pick_on ()) in
        { due; req = request p (b *. (1.001 +. Rng.float rng 0.149)); cls = Off_grid }
      else
        let p, b = below.(pick_below ()) in
        { due; req = request p b; cls = Below_grid })

(* Fresh keys: budgets drawn without replacement from the 1e-4 grid on
   [5, 25].  Nine keys in ten are kmeans and the tenth comd, each app
   rotating over its own inputs (an app without pairs is skipped).  A comd
   solve takes about 2.5 times a kmeans one, so the latencies have one
   mode per app; with these shares p50 falls inside the kmeans mode and
   p95 inside the comd one.  Evenly over the 11 pairs, 6 of them kmeans,
   p50 sat on the gap between the modes, where a few requests more or
   less moved it by a third.  [fresh] carries the draws and rotations
   across calls, so later steps never repeat a key. *)
let fresh_shares = [ ("kmeans", 9); ("comd", 1) ]

type fresh = { drawn : (int, unit) Hashtbl.t; mutable next : int; turns : (string, int) Hashtbl.t }

let fresh () = { drawn = Hashtbl.create 4096; next = 0; turns = Hashtbl.create 4 }

let fresh_pair pairs fresh =
  let groups =
    match
      List.filter_map
        (fun (app, w) ->
          match List.filter (fun p -> p.app = app) (Array.to_list pairs) with
          | [] -> None
          | own -> Some (app, w, Array.of_list own))
        fresh_shares
    with
    | [] -> [ ("", 1, pairs) ]
    | groups -> groups
  in
  let total = List.fold_left (fun n (_, w, _) -> n + w) 0 groups in
  let rec pick slot = function
    | ((_, w, _) as g) :: rest -> if slot < w || rest = [] then g else pick (slot - w) rest
    | [] -> invalid_arg "Keys.fresh_pair"
  in
  let app, _, own = pick (fresh.next mod total) groups in
  fresh.next <- fresh.next + 1;
  let turn = Option.value (Hashtbl.find_opt fresh.turns app) ~default:0 in
  Hashtbl.replace fresh.turns app (turn + 1);
  own.(turn mod Array.length own)

let fresh_key rng pairs fresh =
  let rec budget () =
    let k = Rng.int rng 200_001 in
    if Hashtbl.mem fresh.drawn k then budget ()
    else begin
      Hashtbl.add fresh.drawn k ();
      5.0 +. (float_of_int k *. 1e-4)
    end
  in
  let p = fresh_pair pairs fresh in
  request p (budget ())

(* Gaps of at least half the mean: at 100 rps that is 5 ms, more than a
   comd solve, so a request almost never waits behind another and the
   percentiles measure solves rather than how Poisson arrivals bunch. *)
let cold rng pairs fresh ~rate ~seconds =
  arrivals ~floor:0.5 rng ~rate ~seconds (fun due ->
      { due; req = fresh_key rng pairs fresh; cls = Fresh })
