(* `opprox serve` as a child process: cold start, memory, drain. *)

module Client = Opprox_serve.Client
module Protocol = Opprox_serve.Protocol
module Sexp = Opprox_util.Sexp

type t = { pid : int; socket : string; out : string; err : string }

let rec waitpid flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

(* Daemons not yet stopped; killed and reaped at exit, so a failing run
   leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Start [argv] with the given standard descriptors, killed at exit if
   still running. *)
let create_process argv stdin stdout stderr =
  let pid = Unix.create_process argv.(0) argv stdin stdout stderr in
  live := pid :: !live;
  pid

(* Wait for a process started by [create_process]. *)
let wait pid =
  let _, status = waitpid [] pid in
  live := List.filter (( <> ) pid) !live;
  status

(* Every workload runs the same daemon: two domains, metrics dumped at
   exit; [args] adds the models and, for lookups, the corpus. *)
let spawn ~opprox ~dir ~tag args =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let out = Filename.concat dir (tag ^ ".out") and err = Filename.concat dir (tag ^ ".err") in
  let open_out path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_out out and fd_err = open_out err in
  let argv =
    Array.of_list
      ([ opprox; "serve"; "-j"; "2"; "--metrics-sexp"; "--socket"; socket ] @ args)
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd_out;
        Unix.close fd_err)
      (fun () -> create_process argv Unix.stdin fd_out fd_err)
  in
  { pid; socket; out; err }

let stderr_tail t =
  String.concat "\n" (List.filteri (fun i _ -> i < 20) (List.rev (Host.read_lines t.err)))

(* Poll the socket until the daemon accepts, failing fast if it died. *)
let connect ?(timeout_s = 120.0) t =
  let deadline = Host.now_s () +. timeout_s in
  let rec go () =
    match Client.connect ~socket:t.socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match waitpid [ Unix.WNOHANG ] t.pid with
        | 0, _ -> ()
        | _ -> failwith ("opprox serve exited during start-up:\n" ^ stderr_tail t));
        if Host.now_s () > deadline then failwith "opprox serve never accepted a connection";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* Spawn, then wait for the first Plan reply to [probe]: the set-up time
   a user pays before the daemon can answer. *)
let start ~opprox ~dir ~tag ~probe args =
  let t0 = Host.now_s () in
  let t = spawn ~opprox ~dir ~tag args in
  let client = connect t in
  match Client.request client probe with
  | Protocol.Plan _ -> (t, client, Host.now_s () -. t0)
  | _ ->
      Client.close client;
      failwith "opprox serve answered its first request without a plan"

let rss_mb t = Host.vm_hwm_mb (string_of_int t.pid)

(* The counters, gauges and histogram counts of a [--metrics-sexp] dump. *)
let parse_dump text =
  List.map
    (fun entry ->
      match Sexp.to_list entry with
      | [ name; Sexp.Atom "counter"; v ] -> (Sexp.to_string_atom name, float_of_int (Sexp.to_int v))
      | [ name; Sexp.Atom "gauge"; v ] -> (Sexp.to_string_atom name, Sexp.to_float v)
      | [ name; Sexp.Atom "histogram"; h ] ->
          (Sexp.to_string_atom name, float_of_int (Sexp.to_int (Sexp.field h "count")))
      | _ -> failwith "malformed metrics entry")
    (Sexp.to_list (Sexp.of_string text))

(* SIGTERM, wait for the drain, then read the metrics dump the daemon
   prints after its drain report.  [Error] when it exits non-zero or the
   dump does not parse. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  match wait t.pid with
  | Unix.WEXITED 0 -> (
      let rec after_drain = function
        | l :: rest when String.starts_with ~prefix:"Drained." l -> Some rest
        | _ :: rest -> after_drain rest
        | [] -> None
      in
      match after_drain (Host.read_lines t.out) with
      | Some lines -> (
          match parse_dump (String.concat "\n" lines) with
          | dump -> Ok dump
          | exception (Failure msg | Invalid_argument msg) ->
              Error ("the daemon's metrics dump does not parse: " ^ msg))
      | None -> Error "the daemon never reported its drain")
  | Unix.WEXITED n -> Error (Printf.sprintf "opprox serve exited %d after SIGTERM" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "opprox serve was killed by signal %d" n)
