module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Dtree = Opprox_ml.Dtree
module Metrics = Opprox_obs.Metrics

let log_src = Logs.Src.create "opprox.cfmodel" ~doc:"OPPROX control-flow classifier"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_unknown = Metrics.counter "cfmodel.unknown_signature"
let signature_length = 8

type t = {
  classes : (int list, int) Hashtbl.t;
  tree : Dtree.t;
  accuracy : float;
  n_classes : int;
}

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let signature_of_trace trace = take signature_length trace

let build ?memo app ~inputs =
  if Array.length inputs = 0 then invalid_arg "Cfmodel.build: no inputs";
  let classes = Hashtbl.create 8 in
  let labels =
    Array.map
      (fun input ->
        let exact = Driver.run_exact ?memo app input in
        let signature = signature_of_trace exact.trace in
        match Hashtbl.find_opt classes signature with
        | Some id -> id
        | None ->
            let id = Hashtbl.length classes in
            Hashtbl.replace classes signature id;
            id)
      inputs
  in
  let tree = Dtree.fit inputs labels in
  let accuracy = Dtree.accuracy tree inputs labels in
  { classes; tree; accuracy; n_classes = Hashtbl.length classes }

let classify t input = Dtree.predict t.tree input

let class_of_trace t trace =
  match Hashtbl.find_opt t.classes (signature_of_trace trace) with
  | Some id -> id
  | None ->
      (* Falling back to class 0 keeps the pipeline alive, but a trace the
         classifier never saw means the training inputs missed a control
         flow — surface it instead of mapping silently. *)
      Metrics.incr m_unknown;
      Log.warn (fun m ->
          m "unseen control-flow signature [%s]; falling back to class 0"
            (String.concat ";" (List.map string_of_int (signature_of_trace trace))));
      0

let n_classes t = t.n_classes
let training_accuracy t = t.accuracy

(* -------------------------------------------------------- serialization *)

module Sexp = Opprox_util.Sexp

let to_sexp t =
  let class_entries =
    Hashtbl.fold
      (fun signature id acc ->
        Sexp.list [ Sexp.list (List.map Sexp.int signature); Sexp.int id ] :: acc)
      t.classes []
  in
  Sexp.record
    [
      ("classes", Sexp.list class_entries);
      ("tree", Dtree.to_sexp t.tree);
      ("accuracy", Sexp.float t.accuracy);
      ("n_classes", Sexp.int t.n_classes);
    ]

let of_sexp sexp =
  let classes = Hashtbl.create 8 in
  List.iter
    (fun entry ->
      match Sexp.to_list entry with
      | [ signature; id ] ->
          Hashtbl.replace classes
            (List.map Sexp.to_int (Sexp.to_list signature))
            (Sexp.to_int id)
      | _ -> failwith "Cfmodel.of_sexp: malformed class entry")
    (Sexp.to_list (Sexp.field sexp "classes"));
  let n_classes = Sexp.to_int (Sexp.field sexp "n_classes") in
  (* Signatures map 1:1 to class ids, so a persisted [n_classes] that
     disagrees with the class table marks a corrupted or hand-edited
     artifact; loading it would misindex every per-class model. *)
  if n_classes <> Hashtbl.length classes then
    failwith
      (Printf.sprintf "Cfmodel.of_sexp: n_classes %d disagrees with %d persisted signatures"
         n_classes (Hashtbl.length classes));
  {
    classes;
    tree = Dtree.of_sexp (Sexp.field sexp "tree");
    accuracy = Sexp.to_float (Sexp.field sexp "accuracy");
    n_classes;
  }
