type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l

let int i = Atom (string_of_int i)

(* [Printf.sprintf "%.17g"] hands its format to this same primitive after
   interpreting it; calling it directly skips the interpreter.  An
   integral float below 1e17 has at most 17 digits, all exact, so ["%.17g"]
   prints it in positional form with nothing after the point: its integer
   digits, which [string_of_int] writes faster.  The sign of -0.0 is lost
   by [int_of_float], so it gets its own case. *)
external format_float : string -> float -> string = "caml_format_float"

let float_text f =
  if Float.is_integer f && Float.abs f < 1e17 then
    if f <> 0.0 then string_of_int (int_of_float f)
    else if Float.sign_bit f then "-0"
    else "0"
  else format_float "%.17g" f

let float f = Atom (float_text f)
let string s = Atom s

let shape_error what sexp =
  let head =
    match sexp with
    | Atom a -> Printf.sprintf "atom %S" a
    | List l -> Printf.sprintf "list of %d" (List.length l)
  in
  failwith (Printf.sprintf "Sexp: expected %s, got %s" what head)

let to_int = function
  | Atom a as s -> ( match int_of_string_opt a with Some i -> i | None -> shape_error "int" s)
  | s -> shape_error "int" s

let to_float = function
  | Atom a as s -> (
      match float_of_string_opt a with Some f -> f | None -> shape_error "float" s)
  | s -> shape_error "float" s

let to_string_atom = function Atom a -> a | s -> shape_error "atom" s
let to_list = function List l -> l | s -> shape_error "list" s

let int_array a = List (Array.to_list (Array.map int a))
let float_array a = List (Array.to_list (Array.map float a))
let to_int_array s = Array.of_list (List.map to_int (to_list s))
let to_float_array s = Array.of_list (List.map to_float (to_list s))

let record fields = List (List.map (fun (name, v) -> List [ Atom name; v ]) fields)

let field_opt sexp name =
  match sexp with
  | List fields ->
      List.find_map
        (function List [ Atom n; v ] when n = name -> Some v | _ -> None)
        fields
  | Atom _ -> None

let field sexp name =
  match field_opt sexp name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Sexp: missing field %s" name)

(* ------------------------------------------------------------- printing *)

let bare_atom_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '+' | '*' | '/' | '<' | '>' | '='
  | '!' | '?' | '%' | '@' | ':' ->
      true
  | _ -> false

let needs_quoting s =
  let n = String.length s in
  let rec bare_from i = i = n || (bare_atom_char s.[i] && bare_from (i + 1)) in
  n = 0 || not (bare_from 0)

let write_quoted buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let rec write buf = function
  | Atom a -> if needs_quoting a then write_quoted buf a else Buffer.add_string buf a
  | List [] -> Buffer.add_string buf "()"
  | List (first :: rest) -> write_items buf " " first rest

(* A parenthesized list whose items after the first are each preceded by
   [sep]. *)
and write_items buf sep first rest =
  Buffer.add_char buf '(';
  write buf first;
  write_rest buf sep rest;
  Buffer.add_char buf ')'

and write_rest buf sep = function
  | [] -> ()
  | item :: rest ->
      Buffer.add_string buf sep;
      write buf item;
      write_rest buf sep rest

let rec all_fields = function
  | [] -> true
  | List (Atom _ :: _) :: rest -> all_fields rest
  | _ -> false

let to_string sexp =
  let buf = Buffer.create 1024 in
  (match sexp with
  | List (first :: rest as fields) when all_fields fields ->
      (* Record-ish top level: one field per line for readability.  A
         single field has no separator, so it prints as [write] would. *)
      write_items buf "\n " first rest
  | s -> write buf s);
  Buffer.contents buf

(* -------------------------------------------------------------- parsing *)

(* The scanner reads [input] by index: every [input.[i]] is bounds-checked
   by [String.get] and sits behind an explicit [i < len] test, so reaching
   the end of input is a branch, never an exception. *)
type parser_state = { input : string; len : int; mutable pos : int }

let parse_error msg pos = failwith (Printf.sprintf "Sexp: %s at byte %d" msg pos)

let rec skip_blank st =
  if st.pos < st.len then
    match st.input.[st.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        st.pos <- st.pos + 1;
        skip_blank st
    | ';' ->
        (* line comment: stop at the newline, which the next round skips *)
        let i = ref st.pos in
        while !i < st.len && st.input.[!i] <> '\n' do
          incr i
        done;
        st.pos <- !i;
        skip_blank st
    | _ -> ()

(* A quoted atom whose text starts at [start] and whose first backslash is
   at [i]: copy the escape-free prefix, then unescape up to the closing
   quote. *)
let parse_escaped st start i =
  let buf = Buffer.create (i - start + 16) in
  Buffer.add_substring buf st.input start (i - start);
  let rec go i =
    if i >= st.len then parse_error "unterminated string" st.len
    else
      match st.input.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 >= st.len then parse_error "dangling escape" st.len;
          (match st.input.[i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          go (i + 2)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  st.pos <- go i;
  Atom (Buffer.contents buf)

let parse_quoted st =
  let start = st.pos + 1 (* past the opening quote *) in
  let rec plain i =
    if i >= st.len then parse_error "unterminated string" st.len
    else
      match st.input.[i] with
      | '"' ->
          st.pos <- i + 1;
          Atom (String.sub st.input start (i - start))
      | '\\' -> parse_escaped st start i
      | _ -> plain (i + 1)
  in
  plain start

let parse_bare st =
  let start = st.pos in
  let i = ref start in
  while !i < st.len && bare_atom_char st.input.[!i] do
    incr i
  done;
  if !i = start then parse_error "empty atom" start;
  st.pos <- !i;
  Atom (String.sub st.input start (!i - start))

let rec parse_exp st =
  skip_blank st;
  if st.pos >= st.len then parse_error "unexpected end of input" st.pos;
  match st.input.[st.pos] with
  | '(' ->
      st.pos <- st.pos + 1;
      parse_items st []
  | ')' -> parse_error "unexpected )" st.pos
  | '"' -> parse_quoted st
  | _ -> parse_bare st

and parse_items st acc =
  skip_blank st;
  if st.pos >= st.len then parse_error "unterminated list" st.pos;
  if st.input.[st.pos] = ')' then begin
    st.pos <- st.pos + 1;
    List (List.rev acc)
  end
  else parse_items st (parse_exp st :: acc)

let of_string input =
  let st = { input; len = String.length input; pos = 0 } in
  let result = parse_exp st in
  skip_blank st;
  if st.pos < st.len then parse_error "trailing input" st.pos;
  result

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> failwith (Printf.sprintf "Sexp.read_file: %s" msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try really_input_string ic (in_channel_length ic)
          with End_of_file ->
            failwith (Printf.sprintf "Sexp.read_file: %s: truncated while reading" path))

let save path sexp =
  let tmp = path ^ ".tmp" in
  match
    let oc =
      try open_out_bin tmp
      with Sys_error msg -> failwith (Printf.sprintf "Sexp.save: %s" msg)
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (to_string sexp);
        (* Flush inside the protected region: [close_out_noerr] swallows
           write errors, so a full disk must surface here, not silently. *)
        flush oc)
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let load path =
  let content = read_file path in
  try of_string content with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)
