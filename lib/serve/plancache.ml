module Dmutex = Opprox_util.Dmutex
module Guarded = Opprox_util.Guarded
module Metrics = Opprox_obs.Metrics

(* Process-wide mirrors (aggregated across instances); the exact
   per-instance numbers live in the shard counters below. *)
let m_hit = Metrics.counter "plancache.hit"
let m_miss = Metrics.counter "plancache.miss"
let m_eviction = Metrics.counter "plancache.eviction"
let m_insertion = Metrics.counter "plancache.insertion"
let m_size = Metrics.gauge "plancache.size"

(* One entry: the value plus its shard-local recency stamp.  Recency is a
   monotonically increasing generation per shard; eviction scans for the
   minimum.  Shards are small (capacity/shards entries), so the O(n)
   scan on eviction is cheaper than maintaining an intrusive list and
   much harder to get wrong under concurrency. *)
type 'v entry = { mutable value : 'v; mutable gen : int }

(* Everything a shard mutates under its lock lives in one {!Guarded}
   cell, so the concurrency checker audits that no counter or table is
   touched outside [with_shard]. *)
type 'v shard_state = {
  table : (string, 'v entry) Hashtbl.t;
  cap : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
}

type 'v shard = { mutex : Dmutex.t; state : 'v shard_state Guarded.t }

type 'v t = { shard_table : 'v shard array; total_capacity : int }

type stats = { hits : int; misses : int; evictions : int; insertions : int }

let create ?(shards = 8) ~capacity () =
  if capacity < 1 then invalid_arg "Plancache.create: capacity must be >= 1";
  if shards < 1 then invalid_arg "Plancache.create: shards must be >= 1";
  let shards = Stdlib.min shards capacity in
  (* Split the capacity exactly: the first [capacity mod shards] shards
     take one extra slot, so the per-shard caps sum to [capacity]. *)
  let base = capacity / shards and extra = capacity mod shards in
  let shard_table =
    Array.init shards (fun i ->
        let cap = base + if i < extra then 1 else 0 in
        let mutex = Dmutex.create ~name:"plancache.shard" () in
        {
          mutex;
          state =
            Guarded.create
              ~name:(Printf.sprintf "plancache.shard[%d]" i)
              ~locks:[ mutex ]
              {
                table = Hashtbl.create (2 * cap);
                cap;
                clock = 0;
                hits = 0;
                misses = 0;
                evictions = 0;
                insertions = 0;
              };
        })
  in
  { shard_table; total_capacity = capacity }

let shard_of t key =
  t.shard_table.(Hashtbl.hash key mod Array.length t.shard_table)

(* [with_shard] hands the body the guarded state, already checked: one
   CONC002 probe per critical section instead of one per field touch. *)
let with_shard s f =
  Dmutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Dmutex.unlock s.mutex) (fun () -> f (Guarded.get s.state))

let tick st =
  st.clock <- st.clock + 1;
  st.clock

let find t key =
  let s = shard_of t key in
  with_shard s (fun st ->
      match Hashtbl.find_opt st.table key with
      | Some e ->
          e.gen <- tick st;
          st.hits <- st.hits + 1;
          Metrics.incr m_hit;
          Some e.value
      | None ->
          st.misses <- st.misses + 1;
          Metrics.incr m_miss;
          None)

let evict_lru_locked st =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, g) when g <= e.gen -> ()
      | _ -> victim := Some (key, e.gen))
    st.table;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove st.table key;
      st.evictions <- st.evictions + 1;
      Metrics.incr m_eviction

let total_size t =
  Array.fold_left (fun acc s -> acc + with_shard s (fun st -> Hashtbl.length st.table)) 0
    t.shard_table

let add t key value =
  let s = shard_of t key in
  with_shard s (fun st ->
      match Hashtbl.find_opt st.table key with
      | Some e ->
          e.value <- value;
          e.gen <- tick st
      | None ->
          if Hashtbl.length st.table >= st.cap then evict_lru_locked st;
          Hashtbl.replace st.table key { value; gen = tick st };
          st.insertions <- st.insertions + 1;
          Metrics.incr m_insertion);
  Metrics.set m_size (float_of_int (total_size t))

let mem t key =
  let s = shard_of t key in
  with_shard s (fun st -> Hashtbl.mem st.table key)

let size = total_size
let capacity t = t.total_capacity
let shards t = Array.length t.shard_table

let clear t =
  Array.iter (fun s -> with_shard s (fun st -> Hashtbl.reset st.table)) t.shard_table;
  Metrics.set m_size 0.0

let stats t =
  Array.fold_left
    (fun acc s ->
      with_shard s (fun st ->
          {
            hits = acc.hits + st.hits;
            misses = acc.misses + st.misses;
            evictions = acc.evictions + st.evictions;
            insertions = acc.insertions + st.insertions;
          }))
    { hits = 0; misses = 0; evictions = 0; insertions = 0 }
    t.shard_table

(* --------------------------------------------------------------- snapshot *)

module Sexp = Opprox_util.Sexp

let to_sexp conv t =
  (* Per shard, entries emit least-recent first; {!restore} replays them
     through {!add}, so within a shard the recency order — and therefore
     the eviction order — survives the round-trip exactly.  Across shards
     generations are independent clocks with no global order to keep. *)
  let entries =
    Array.to_list t.shard_table
    |> List.concat_map (fun s ->
           with_shard s (fun st ->
               Hashtbl.fold (fun key e acc -> (e.gen, key, e.value) :: acc) st.table []
               |> List.sort (fun (g1, _, _) (g2, _, _) -> compare g1 g2)))
  in
  Sexp.list (List.map (fun (_, key, v) -> Sexp.list [ Sexp.string key; conv v ]) entries)

let restore of_value t sexp =
  let n = ref 0 in
  List.iter
    (fun e ->
      match Sexp.to_list e with
      | [ key; v ] ->
          add t (Sexp.to_string_atom key) (of_value v);
          incr n
      | _ -> failwith "Plancache.restore: malformed snapshot entry")
    (Sexp.to_list sexp);
  !n
