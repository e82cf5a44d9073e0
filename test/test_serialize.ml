(* Tests for the S-expression codec and the model save/load round-trips. *)

module Sexp = Opprox_util.Sexp
module Polyreg = Opprox_ml.Polyreg
module Dtree = Opprox_ml.Dtree
module Confidence = Opprox_ml.Confidence
module Rng = Opprox_util.Rng
open Fixtures

(* ------------------------------------------------------ reference codec *)

(* Verbatim copies of the codec as it stood before its hot paths were
   rewritten (Printf float text, closure-per-item writer, option-peeking
   parser).  The differential properties below pin the rewrite to these
   byte for byte: same text out, same value or same [Failure] text in. *)
module Ref = struct
  type t = Sexp.t = Atom of string | List of t list

  let float f = Atom (Printf.sprintf "%.17g" f)

  let bare_atom_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '+' | '*' | '/' | '<' | '>' | '='
    | '!' | '?' | '%' | '@' | ':' ->
        true
    | _ -> false

  let needs_quoting s = s = "" || not (String.for_all bare_atom_char s)

  let quote s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let rec write buf = function
    | Atom a -> Buffer.add_string buf (if needs_quoting a then quote a else a)
    | List items ->
        Buffer.add_char buf '(';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ' ';
            write buf item)
          items;
        Buffer.add_char buf ')'

  let to_string sexp =
    let buf = Buffer.create 1024 in
    (match sexp with
    | List fields
      when List.for_all (function List (Atom _ :: _) -> true | _ -> false) fields
           && List.length fields > 1 ->
        (* Record-ish top level: one field per line for readability. *)
        Buffer.add_string buf "(";
        List.iteri
          (fun i f ->
            if i > 0 then Buffer.add_string buf "\n ";
            write buf f)
          fields;
        Buffer.add_string buf ")"
    | s -> write buf s);
    Buffer.contents buf

  type parser_state = { input : string; mutable pos : int }

  let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let parse_error st msg = failwith (Printf.sprintf "Sexp: %s at byte %d" msg st.pos)

  let rec skip_blank st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        skip_blank st
    | Some ';' ->
        (* line comment *)
        let rec to_eol () =
          match peek st with
          | Some '\n' | None -> ()
          | Some _ ->
              advance st;
              to_eol ()
        in
        to_eol ();
        skip_blank st
    | Some _ | None -> ()

  let parse_quoted st =
    advance st (* opening quote *);
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> parse_error st "unterminated string"
      | Some '"' -> advance st
      | Some '\\' -> (
          advance st;
          match peek st with
          | Some 'n' -> Buffer.add_char buf '\n'; advance st; go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance st; go ()
          | Some c -> Buffer.add_char buf c; advance st; go ()
          | None -> parse_error st "dangling escape")
      | Some c ->
          Buffer.add_char buf c;
          advance st;
          go ()
    in
    go ();
    Atom (Buffer.contents buf)

  let parse_bare st =
    let start = st.pos in
    let rec go () =
      match peek st with
      | Some c when bare_atom_char c ->
          advance st;
          go ()
      | Some _ | None -> ()
    in
    go ();
    if st.pos = start then parse_error st "empty atom";
    Atom (String.sub st.input start (st.pos - start))

  let rec parse_exp st =
    skip_blank st;
    match peek st with
    | None -> parse_error st "unexpected end of input"
    | Some '(' ->
        advance st;
        let items = ref [] in
        let rec items_loop () =
          skip_blank st;
          match peek st with
          | Some ')' -> advance st
          | None -> parse_error st "unterminated list"
          | Some _ ->
              items := parse_exp st :: !items;
              items_loop ()
        in
        items_loop ();
        List (List.rev !items)
    | Some ')' -> parse_error st "unexpected )"
    | Some '"' -> parse_quoted st
    | Some _ -> parse_bare st

  let of_string input =
    let st = { input; pos = 0 } in
    let result = parse_exp st in
    skip_blank st;
    (match peek st with None -> () | Some _ -> parse_error st "trailing input");
    result
end

(* ----------------------------------------------------------------- Sexp *)

let test_atom_roundtrip () =
  List.iter
    (fun s ->
      let sexp = Sexp.atom s in
      Alcotest.(check string) s s (Sexp.to_string_atom (Sexp.of_string (Sexp.to_string sexp))))
    [ "hello"; "with space"; "quo\"te"; "back\\slash"; "line\nbreak"; "tab\tchar"; "" ]

let test_int_float_roundtrip () =
  List.iter
    (fun i -> check_int "int" i (Sexp.to_int (Sexp.of_string (Sexp.to_string (Sexp.int i)))))
    [ 0; -1; 42; max_int; min_int ];
  List.iter
    (fun f ->
      check_float "float" f (Sexp.to_float (Sexp.of_string (Sexp.to_string (Sexp.float f)))))
    [ 0.0; -1.5; 3.14159265358979312; 1e-300; 1e300; Float.min_float ]

let test_nested_roundtrip () =
  let sexp =
    Sexp.list [ Sexp.atom "a"; Sexp.list [ Sexp.int 1; Sexp.float 2.5 ]; Sexp.atom "b c" ]
  in
  let back = Sexp.of_string (Sexp.to_string sexp) in
  check_bool "structurally equal" true (back = sexp)

let test_record_fields () =
  let r = Sexp.record [ ("x", Sexp.int 1); ("y", Sexp.atom "two") ] in
  check_int "x" 1 (Sexp.to_int (Sexp.field r "x"));
  Alcotest.(check string) "y" "two" (Sexp.to_string_atom (Sexp.field r "y"));
  check_bool "missing is None" true (Sexp.field_opt r "z" = None)

let test_record_missing_field () =
  let r = Sexp.record [ ("x", Sexp.int 1) ] in
  Alcotest.check_raises "missing" (Failure "Sexp: missing field nope") (fun () ->
      ignore (Sexp.field r "nope"))

let test_comments_and_whitespace () =
  let parsed = Sexp.of_string "  ; leading comment\n ( a ; mid\n b )  " in
  check_bool "parsed" true (parsed = Sexp.list [ Sexp.atom "a"; Sexp.atom "b" ])

let outcome parse input = match parse input with v -> Ok v | exception Failure msg -> Error msg

(* Each of the seven [of_string] failures, with its exact text and byte
   offset, from both this codec and the reference copy. *)
let test_parse_errors () =
  List.iter
    (fun (input, msg) ->
      let want = Error ("Sexp: " ^ msg) in
      check_bool ("reference: " ^ msg) true (outcome Ref.of_string input = want);
      check_bool msg true (outcome Sexp.of_string input = want))
    [
      ("", "unexpected end of input at byte 0");
      ("  ; only a comment", "unexpected end of input at byte 18");
      ("(", "unterminated list at byte 1");
      ("(a (b)", "unterminated list at byte 6");
      (")", "unexpected ) at byte 0");
      ("\"unterminated", "unterminated string at byte 13");
      ("(\"ab\\", "dangling escape at byte 5");
      ("(a #)", "empty atom at byte 3");
      ("a b", "trailing input at byte 2");
    ]

let test_arrays_roundtrip () =
  let ints = [| 1; -2; 3 |] and floats = [| 0.5; -1.25 |] in
  Alcotest.(check (array int)) "ints" ints
    (Sexp.to_int_array (Sexp.of_string (Sexp.to_string (Sexp.int_array ints))));
  Alcotest.(check (array (float 0.0))) "floats" floats
    (Sexp.to_float_array (Sexp.of_string (Sexp.to_string (Sexp.float_array floats))))

let test_save_load_file () =
  let path = Filename.temp_file "opprox_sexp" ".scm" in
  let sexp = Sexp.record [ ("k", Sexp.float 1.5); ("l", Sexp.list [ Sexp.int 1 ]) ] in
  Sexp.save path sexp;
  let back = Sexp.load path in
  Sys.remove path;
  check_bool "file roundtrip" true (back = sexp)

let prop_string_roundtrip =
  qcheck_case "arbitrary strings survive quoting" QCheck.string (fun s ->
      Sexp.of_string (Sexp.to_string (Sexp.string s)) = Sexp.Atom s)

(* ------------------------------------------- differential: Sexp vs Ref *)

let bits_text x = Printf.sprintf "%h (bits %Lx)" x (Int64.bits_of_float x)

(* Where the float printer's two fast paths meet the general one: NaNs of
   both signs and payloads, infinities, signed zeros, the exact-integer
   limit 2^53, and both sides of the 1e17 integer bound. *)
let float_edges =
  let near x k = Int64.float_of_bits (Int64.add (Int64.bits_of_float x) (Int64.of_int k)) in
  [
    Float.nan; Float.neg Float.nan; Int64.float_of_bits 0x7ff0000000000001L;
    Int64.float_of_bits 0xfff8000000000001L; Float.infinity; Float.neg_infinity; 0.0; -0.0;
    0x1p53; -0x1p53; 0x1p53 +. 2.0; 1e16; -1e16; 1e17; -1e17; near 1e17 (-1); near 1e17 1;
    near (-1e17) (-1); 1e18; 1.0; -1.0; 0.5; -0.5; 0.1; 1.5e-7; Float.max_float;
    Float.min_float; 4.9e-324; Float.epsilon; Float.of_int max_int; Float.of_int min_int;
  ]

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map Int64.float_of_bits ui64);
        (2, map Float.of_int int);
        ( 2,
          map
            (fun (m, e) -> Float.ldexp (Float.of_int m) e)
            (pair (int_range (-1_000_000) 1_000_000) (int_range (-30) 60)) );
        ( 1,
          map
            (fun (x, k) -> Int64.float_of_bits (Int64.add (Int64.bits_of_float x) (Int64.of_int k)))
            (pair (oneofl [ 1e17; -1e17; 1e16; 0x1p53 ]) (int_range (-64) 64)) );
      ])

let test_float_edges () =
  List.iter
    (fun x ->
      Alcotest.(check string) (bits_text x) (Sexp.to_string_atom (Ref.float x))
        (Sexp.to_string_atom (Sexp.float x)))
    float_edges

let prop_float_text =
  qcheck_case ~count:5000 "float text = %.17g"
    (QCheck.make ~print:bits_text float_gen)
    (fun x -> Sexp.float x = Ref.float x)

(* Atoms that print bare, atoms that need quoting (empty, blanks, quotes,
   backslashes, parens, comment starts, raw bytes), and float texts. *)
let atom_gen =
  QCheck.Gen.(
    frequency
      [
        (4, oneofl [ "a"; "kmeans"; "1.5"; "-0"; "x-y"; "a.b"; "<=>"; "%@:?!*/+"; "v" ]);
        (1, return "");
        ( 2,
          oneofl
            [ "with space"; "quo\"te"; "back\\slash"; "line\nbreak"; "tab\tchar"; "cr\r";
              "(paren"; ")"; ";semi"; "#"; "\255\000" ] );
        (3, string_size ~gen:printable (int_range 0 6));
        (2, map (fun x -> Sexp.to_string_atom (Ref.float x)) float_gen);
      ])

(* Trees with empty lists, one-field records, and record-ish lists whose
   items all start with an atom (the shape [to_string] lays out one field
   per line at the top level). *)
let tree_gen =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let atom = map Sexp.atom atom_gen in
           if depth = 0 then atom
           else
             let sub = self (depth - 1) in
             frequency
               [
                 (3, atom);
                 (1, return (Sexp.List []));
                 (2, map Sexp.list (list_size (int_range 0 5) sub));
                 (2, map (fun (k, v) -> Sexp.record [ (k, v) ]) (pair atom_gen sub));
                 ( 2,
                   map
                     (fun fields ->
                       Sexp.List (List.map (fun (k, vs) -> Sexp.List (Sexp.Atom k :: vs)) fields))
                     (list_size (int_range 1 4) (pair atom_gen (list_size (int_range 0 3) sub))) );
               ]))

let prop_to_string =
  qcheck_case ~count:1000 "to_string = reference"
    (QCheck.make ~print:Ref.to_string tree_gen)
    (fun t -> Sexp.to_string t = Ref.to_string t)

(* Printed trees, the same cut at a random byte or with one byte flipped,
   comment-laced text, and random bytes (syntax-heavy and raw). *)
let parse_input_gen =
  QCheck.Gen.(
    let printed = map Ref.to_string tree_gen in
    let syntax = oneofl [ '('; ')'; '"'; '\\'; ';'; ' '; '\n'; '\t'; '\r'; 'a'; '1'; '#'; 'n' ] in
    frequency
      [
        (2, printed);
        (2, printed >>= fun s -> map (fun k -> String.sub s 0 k) (int_bound (String.length s)));
        ( 2,
          printed >>= fun s ->
          if s = "" then return s
          else
            map
              (fun (i, x) ->
                String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor x) else c) s)
              (pair (int_bound (String.length s - 1)) (int_range 1 255)) );
        (1, map (fun s -> "; head\n " ^ s ^ " ; tail") printed);
        (2, string_size ~gen:syntax (int_range 0 12));
        (1, string_size ~gen:char (int_range 0 12));
      ])

let prop_of_string =
  qcheck_case ~count:3000 "of_string = reference (value or Failure text)"
    (QCheck.make ~print:(Printf.sprintf "%S") parse_input_gen)
    (fun input -> outcome Sexp.of_string input = outcome Ref.of_string input)

(* ------------------------------------------------------ model roundtrips *)

let close a b = Float.abs (a -. b) < 1e-9 || (Float.is_nan a && Float.is_nan b)

let test_polyreg_roundtrip () =
  let rng = Rng.create 31 in
  let rows = Array.init 50 (fun i -> [| float_of_int (i mod 10); float_of_int (i / 10) |]) in
  let ys = Array.map (fun r -> (r.(0) *. r.(0)) +. (3.0 *. r.(1))) rows in
  let m = Polyreg.fit ~rng rows ys in
  let back = Polyreg.of_sexp (Sexp.of_string (Sexp.to_string (Polyreg.to_sexp m))) in
  check_int "degree preserved" (Polyreg.degree m) (Polyreg.degree back);
  check_float "cv preserved" (Polyreg.cv_r2 m) (Polyreg.cv_r2 back);
  List.iter
    (fun probe ->
      check_bool "identical predictions" true
        (close (Polyreg.predict m probe) (Polyreg.predict back probe)))
    [ [| 0.0; 0.0 |]; [| 5.5; 2.5 |]; [| 9.0; 4.0 |]; [| 20.0; 20.0 |] ]

let test_polyreg_split_roundtrip () =
  (* Force a split model: a discontinuous target defeats low-degree fits. *)
  let rng = Rng.create 32 in
  let rows = Array.init 60 (fun i -> [| float_of_int i |]) in
  let ys = Array.map (fun r -> if r.(0) < 30.0 then r.(0) else 1000.0 -. r.(0)) rows in
  let config = { Polyreg.default_config with max_degree = 1; target_r2 = 0.999 } in
  let m = Polyreg.fit ~config ~rng rows ys in
  let back = Polyreg.of_sexp (Polyreg.to_sexp m) in
  check_bool "same split-ness" true (Polyreg.is_split m = Polyreg.is_split back);
  List.iter
    (fun x ->
      check_bool "identical predictions" true
        (close (Polyreg.predict m [| x |]) (Polyreg.predict back [| x |])))
    [ 0.0; 15.0; 29.9; 30.1; 59.0 ]

let test_dtree_roundtrip () =
  let rows = Array.init 40 (fun i -> [| float_of_int (i mod 8); float_of_int (i / 8) |]) in
  let labels = Array.map (fun r -> (int_of_float r.(0) + int_of_float r.(1)) mod 3) rows in
  let t = Dtree.fit rows labels in
  let back = Dtree.of_sexp (Sexp.of_string (Sexp.to_string (Dtree.to_sexp t))) in
  check_int "depth" (Dtree.depth t) (Dtree.depth back);
  check_int "leaves" (Dtree.n_leaves t) (Dtree.n_leaves back);
  Array.iter
    (fun row -> check_int "same classification" (Dtree.predict t row) (Dtree.predict back row))
    rows

let test_confidence_roundtrip () =
  let ci = Confidence.of_residuals ~p:0.9 [| 0.5; -1.5; 0.1 |] in
  let back = Confidence.of_sexp (Confidence.to_sexp ci) in
  check_float "half width" (Confidence.half_width ci) (Confidence.half_width back)

let test_trained_roundtrip () =
  let trained =
    Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy
  in
  let path = Filename.temp_file "opprox_trained" ".scm" in
  Opprox.save path trained;
  let back = Opprox.load ~resolve:(fun name -> if name = "toy" then toy else raise Not_found) path in
  Sys.remove path;
  Alcotest.(check (array (float 1e-12))) "roi preserved" trained.Opprox.roi back.Opprox.roi;
  check_int "samples preserved"
    (Opprox.Training.n_runs trained.Opprox.training)
    (Opprox.Training.n_runs back.Opprox.training);
  (* The loaded models must drive the optimizer to the same plan. *)
  let plan a = Opprox.optimize a ~budget:10.0 in
  let p1 = plan trained and p2 = plan back in
  check_bool "same schedule" true
    (Opprox_sim.Schedule.equal p1.Opprox.Optimizer.schedule p2.Opprox.Optimizer.schedule);
  (* And to identical predictions everywhere in the space. *)
  List.iter
    (fun levels ->
      for phase = 0 to 1 do
        let a = Opprox.Models.predict trained.Opprox.models ~input:[| 1.5 |] ~phase ~levels in
        let b = Opprox.Models.predict back.Opprox.models ~input:[| 1.5 |] ~phase ~levels in
        check_bool "prediction match" true
          (close a.Opprox.Models.qos b.Opprox.Models.qos
          && close a.Opprox.Models.speedup b.Opprox.Models.speedup)
      done)
    [ [| 1; 0 |]; [| 2; 3 |]; [| 3; 3 |] ]

let test_load_unknown_app () =
  let trained =
    Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy
  in
  let path = Filename.temp_file "opprox_trained" ".scm" in
  Opprox.save path trained;
  Alcotest.check_raises "unresolvable" Not_found (fun () ->
      ignore (Opprox.load ~resolve:(fun _ -> raise Not_found) path));
  Sys.remove path

let suite =
  [
    ( "sexp",
      [
        Alcotest.test_case "atom roundtrip" `Quick test_atom_roundtrip;
        Alcotest.test_case "int/float roundtrip" `Quick test_int_float_roundtrip;
        Alcotest.test_case "nested roundtrip" `Quick test_nested_roundtrip;
        Alcotest.test_case "record fields" `Quick test_record_fields;
        Alcotest.test_case "missing field" `Quick test_record_missing_field;
        Alcotest.test_case "comments and whitespace" `Quick test_comments_and_whitespace;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "arrays" `Quick test_arrays_roundtrip;
        Alcotest.test_case "file save/load" `Quick test_save_load_file;
        prop_string_roundtrip;
      ] );
    ( "sexp-reference",
      [
        Alcotest.test_case "float edge values" `Quick test_float_edges;
        prop_float_text;
        prop_to_string;
        prop_of_string;
      ] );
    ( "model-roundtrips",
      [
        Alcotest.test_case "polyreg" `Quick test_polyreg_roundtrip;
        Alcotest.test_case "polyreg split" `Quick test_polyreg_split_roundtrip;
        Alcotest.test_case "dtree" `Quick test_dtree_roundtrip;
        Alcotest.test_case "confidence" `Quick test_confidence_roundtrip;
        Alcotest.test_case "trained pipeline" `Quick test_trained_roundtrip;
        Alcotest.test_case "unknown app" `Quick test_load_unknown_app;
      ] );
  ]
