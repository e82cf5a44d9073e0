(* End-to-end benchmark of OPPROX: plan serving over a real Unix socket
   and the offline pipeline.  See README.md for the workloads and
   metrics.

     e2e.exe --workload W [--workload W ...] --seed N --seconds S --trace 0|1
             [--opprox PATH]
     e2e.exe --smoke --opprox PATH --fixture FILE
     e2e.exe --record FILE --seed N --seconds S [--opprox PATH]

   Prints host facts and every metric with its unit, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  Exits 1 when an output
   check fails, 2 on bad arguments. *)

module Precompute = Opprox_corpus.Precompute

let workloads = [ "serve-hot"; "serve-cold"; "serve-idle-conn"; "offline" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("p50_ms", "ms");
    ("p95_ms", "ms");
    ("rss_mb", "MB");
    ("measured_speedup", "x");
    ("budget_met_share", "share");
  ]

let sources = [ "corpus"; "nn"; "cache"; "solved" ]

let per_layer =
  List.map (fun l -> (l ^ "_us", "us")) Replay.layers
  @ [
      ("p99_ms", "ms");
      ("server.handle_us", "us");
      ("server.elapsed_us", "us");
      ("client.outside_server_us", "us");
      ("loadgen.send_late_p99_ms", "ms");
      ("optimizer.solves", "count");
      ("optimizer.predict_hit_ratio", "share");
      ("plancache.evictions", "count");
      ("plancache.hit_ratio", "share");
      ("corpus.exact_hit_ratio", "share");
      ("corpus.nn_hit_ratio", "share");
      ("server.errors", "count");
      ("max_rate_rps", "1/s");
      ("slo_attainment", "share");
      ("error_rate", "share");
    ]
  @ List.concat_map
      (fun s -> [ ("source." ^ s ^ ".p50_ms", "ms"); ("source." ^ s ^ ".p99_ms", "ms") ])
      sources
  @ [ ("models.load_s", "s"); ("corpus.load_s", "s"); ("server.create_s", "s") ]
  @ [
      ("train_s", "s");
      ("phases.search_s", "s");
      ("training.collect_s", "s");
      ("models.build_s.comd", "s");
      ("models.build_s.kmeans", "s");
      ("training.runs", "count");
      ("driver.exact_runs", "count");
      ("driver.eval_hit_ratio", "share");
      ("driver.ckpt_hit_ratio", "share");
      ("precompute.sweep_s", "s");
      ("precompute.failed", "count");
      ("corpus.write_s", "s");
      ("search.solve_s", "s");
      ("search.accept_ratio", "share");
      ("opprox.apply_s", "s");
      ("violation_rate", "share");
    ]
  @ List.map (fun s -> ("trace.unattributed_share." ^ s, "share")) sources
  @ [ ("trace.overhead_ratio", "ratio"); ("host.kernel_ms", "ms") ]

(* ------------------------------------------------------------ artifacts *)

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The serving pipelines are trained once per build and kept under the
   state directory, keyed by this executable's digest: training takes
   seconds and is measured by the offline workload instead. *)
let artifacts ~dir ~fixture =
  let budgets = Keys.grid in
  match fixture with
  | Some path ->
      let trained = [ Opprox.load ~resolve:Opprox_apps.Registry.find path ] in
      let corpus = Filename.concat dir "corpus.opx" in
      ignore (Precompute.run ~budgets ~out:corpus trained);
      { Serve.models = [ path ]; corpus; trained }
  | None ->
      let cache =
        Filename.concat dir ("pipelines-" ^ Digest.to_hex (Digest.file Sys.executable_name))
      in
      mkdir_p cache;
      let apps = [ "comd"; "kmeans" ] in
      let models = List.map (fun a -> Filename.concat cache (a ^ ".sexp")) apps in
      let corpus = Filename.concat cache "corpus.opx" in
      let trained =
        List.map2
          (fun app path ->
            if Sys.file_exists path then Opprox.load ~resolve:Opprox_apps.Registry.find path
            else begin
              let tr = Opprox.train (Opprox_apps.Registry.find app) in
              Opprox.save path tr;
              tr
            end)
          apps models
      in
      if not (Sys.file_exists corpus) then ignore (Precompute.run ~budgets ~out:corpus trained);
      { Serve.models; corpus; trained }

(* --------------------------------------------------------------- output *)

let json_float v = Printf.sprintf "%.17g" v

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
         metrics)
  ^ "}"

(* Every name of [table], valued from [measured]; a layer a workload does
   not exercise reads 0. *)
let fill table measured =
  List.map
    (fun (name, unit) -> (name, Option.value (List.assoc_opt name measured) ~default:0.0, unit))
    table

let run_workload ~opprox ~dir ~fixture ~smoke ~trace ~seed ~seconds workload =
  let wdir = Filename.concat dir workload in
  mkdir_p wdir;
  let run =
    if workload = "offline" then Offline.run ~dir:wdir ~smoke ~trace ~seed ~seconds
    else
      Serve.run ~opprox ~dir:wdir ~smoke ~trace ~seed ~seconds (artifacts ~dir ~fixture) workload
  in
  if trace then begin
    Opprox_obs.Trace.export (Filename.concat wdir "trace.json");
    Opprox_obs.Trace.clear ()
  end;
  run

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--replay-server" then
    Replay.server_main Sys.argv;
  let selected = ref [] and seed = ref 1 and seconds = ref 16.0 and trace = ref 0 in
  let smoke = ref false and opprox = ref "_build/default/bin/opprox_cli.exe" and fixture = ref None in
  let record = ref None in
  let usage = "e2e.exe --workload W --seed N --seconds S --trace 0|1 [--opprox PATH]" in
  let bad fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("e2e: " ^ m);
        prerr_endline usage;
        exit 2)
      fmt
  in
  Arg.parse
    [
      ("--workload", Arg.String (fun w -> selected := !selected @ [ w ]),
       "W  " ^ String.concat " | " workloads ^ " (repeatable)");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the reference step");
      ("--trace", Arg.Set_int trace, "0|1  1: report per-layer metrics instead");
      ("--smoke", Arg.Set smoke, " every workload, tiny steps, every metric (CI)");
      ("--opprox", Arg.Set_string opprox, "PATH  the opprox executable to serve with");
      ("--fixture", Arg.String (fun f -> fixture := Some f), "FILE  trained pipeline for --smoke");
      ("--record", Arg.String (fun f -> record := Some f),
       "FILE  every workload, untraced and traced; the result and host facts go to FILE");
    ]
    (fun a -> bad "unexpected argument %s" a)
    usage;
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if not (!seconds > 0.0) then bad "--seconds must be positive";
  List.iter (fun w -> if not (List.mem w workloads) then bad "unknown workload %s" w) !selected;
  if !smoke && !fixture = None then bad "--smoke needs --fixture";
  let every = !smoke || !record <> None in
  if (not every) && !selected = [] then bad "name a --workload";
  if not (Sys.file_exists !opprox) then bad "no opprox executable at %s" !opprox;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  (* A peer that hangs up must surface as an error, not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = if !smoke then "e2e-smoke.tmp" else ".bench_e2e" in
  mkdir_p dir;
  let facts = Host.facts () in
  List.iter (fun (k, v) -> Printf.printf "host %s %s\n" k v) facts;
  let plan =
    if every then List.concat_map (fun w -> [ (w, false); (w, true) ]) workloads
    else List.map (fun w -> (w, !trace = 1)) !selected
  in
  let seconds = if !smoke then 0.4 else !seconds in
  let results =
    List.map
      (fun (w, trace) ->
        let r =
          try
            run_workload ~opprox:!opprox ~dir ~fixture:!fixture ~smoke:!smoke ~trace ~seed:!seed
              ~seconds w
          with e ->
            { Host.e2e = []; layers = []; attempted = 0; failed = 0;
              problems = [ "the run raised " ^ Printexc.to_string e ] }
        in
        let metrics = if trace then fill per_layer r.layers else fill end_to_end r.e2e in
        (* JSON has no NaN: an unreadable measurement fails the run *)
        let r, metrics =
          match List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics with
          | [] -> (r, metrics)
          | bad ->
              ( { r with problems = r.problems @ List.map (fun (n, _, _) -> n ^ " is not a number") bad },
                List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) metrics )
        in
        Printf.printf "workload %s (%s)\n" w (if trace then "traced" else "untraced");
        List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %14.6g %s\n" name v unit) metrics;
        List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) r.problems;
        Printf.printf "%!";
        (w, trace, r, metrics))
      plan
  in
  if !smoke then rm_rf dir;
  let correct = List.for_all (fun (_, _, (r : Host.run), _) -> r.problems = []) results in
  let metrics =
    match results with
    | [ (_, _, _, m) ] -> m
    | _ ->
        List.concat_map
          (fun (w, trace, _, m) ->
            List.map
              (fun (name, v, unit) ->
                (Printf.sprintf "%s%s/%s" w (if trace then ".traced" else "") name, v, unit))
              m)
          results
  in
  let sum f = List.fold_left (fun acc (_, _, r, _) -> acc + f r) 0 results in
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
      (sum (fun (r : Host.run) -> r.attempted))
      (sum (fun (r : Host.run) -> r.failed))
      (json_metrics metrics)
  in
  Option.iter
    (fun path ->
      mkdir_p (Filename.dirname path);
      let oc = open_out path in
      Printf.fprintf oc "{\"host\": {%s},\n \"seed\": %d, \"seconds\": %s,\n \"result\": %s}\n"
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) facts))
        !seed (json_float seconds) result;
      close_out oc)
    !record;
  print_endline result;
  exit (if correct then 0 else 1)
