(* Facts about the host and build a run measured, clocks and memory
   readings, and what one workload run reports. *)

type run = {
  e2e : (string * float) list;  (** by end-to-end metric name *)
  layers : (string * float) list;  (** by per-layer metric name; absent: not exercised *)
  attempted : int;
  failed : int;  (** operations that produced no plan *)
  problems : string list;  (** output checks that did not hold *)
}

let now_s () = Opprox_obs.Trace.now_us () /. 1e6

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* A fixed unit of CPU work that allocates like the solver does (short
   lists of floats, all dying young) but calls nothing under test: its
   time tracks how fast this host runs the benchmark right now.  About
   0.5 ms on an unloaded core. *)
let kernel () =
  let acc = ref 0.0 in
  for i = 1 to 4000 do
    let l = List.init 16 (fun j -> float_of_int (i * j)) in
    acc := !acc +. List.fold_left (fun a x -> a +. sqrt (x +. 1.0)) 0.0 l
  done;
  ignore (Sys.opaque_identity !acc)

(* What {!kernel} takes at the speed latencies are scaled to. *)
let reference_kernel_ms = 0.5

(* The kernel's median time over [n] runs, in ms. *)
let kernel_ms n =
  let xs = Array.init n (fun _ -> snd (time kernel)) in
  Array.sort Float.compare xs;
  xs.(n / 2) *. 1000.0

(* [f ()] and its wall time scaled to the reference speed by the kernel
   timed just before and after it: a CPU-bound stage on one domain slows
   and speeds up with the host, and the kernel with it. *)
let time_scaled f =
  let k0 = kernel_ms 5 in
  let r, dt = time f in
  let k1 = kernel_ms 5 in
  (r, dt *. reference_kernel_ms *. 2.0 /. (k0 +. k1))

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
          in
          go [])

(* Peak resident set of a process ("self" or a pid), in MB. *)
let vm_hwm_mb proc =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%f kB" (fun kb -> kb /. 1024.0)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%s/status" proc))
  |> Option.value ~default:Float.nan

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> -1
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> -1 in
      ignore (Unix.close_process_in ic);
      n

(* The commit of a git checkout, read from its files; "unknown" elsewhere. *)
let commit () =
  let first path = match read_lines path with l :: _ -> Some (String.trim l) | [] -> None in
  match first ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match first (Filename.concat ".git" ref_) with
      | Some c -> c
      | None ->
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ c; r ] when r = ref_ -> Some c
              | _ -> None)
            (read_lines ".git/packed-refs")
          |> Option.value ~default:"unknown")
  | Some c -> c
  | None -> "unknown"

let facts () =
  [
    ("nproc", string_of_int (nproc ()));
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", commit ());
  ]
