type t = { arity : int; degree : int; exponents : int array array }

(* Enumerate exponent vectors with total degree <= d, graded order:
   constant first, then degree 1 monomials, etc.; within one degree,
   lexicographic in (e1, ..., ek). *)
let enumerate_exponents arity degree =
  let acc = ref [] in
  let current = Array.make arity 0 in
  (* Exponents for positions [pos..] summing to exactly [remaining]. *)
  let rec go pos remaining =
    if pos = arity - 1 then begin
      current.(pos) <- remaining;
      acc := Array.copy current :: !acc
    end
    else
      for e = 0 to remaining do
        current.(pos) <- e;
        go (pos + 1) (remaining - e)
      done
  in
  for total = 0 to degree do
    go 0 total
  done;
  Array.of_list (List.rev !acc)

let create ?caps ~arity ~degree () =
  if arity < 1 then invalid_arg "Polyfeat.create: arity must be >= 1";
  if degree < 0 then invalid_arg "Polyfeat.create: degree must be >= 0";
  let exponents = enumerate_exponents arity degree in
  let exponents =
    match caps with
    | None -> exponents
    | Some caps ->
        if Array.length caps <> arity then invalid_arg "Polyfeat.create: caps arity mismatch";
        let within expv =
          let ok = ref true in
          Array.iteri (fun j e -> if e > caps.(j) then ok := false) expv;
          !ok
        in
        Array.of_list (List.filter within (Array.to_list exponents))
  in
  { arity; degree; exponents }

let of_exponents exponents =
  let n = Array.length exponents in
  if n = 0 then invalid_arg "Polyfeat.of_exponents: empty";
  let arity = Array.length exponents.(0) in
  if arity = 0 then invalid_arg "Polyfeat.of_exponents: zero arity";
  Array.iter
    (fun e -> if Array.length e <> arity then invalid_arg "Polyfeat.of_exponents: ragged")
    exponents;
  let degree =
    Array.fold_left (fun acc e -> Stdlib.max acc (Array.fold_left ( + ) 0 e)) 0 exponents
  in
  { arity; degree; exponents = Array.map Array.copy exponents }

let arity t = t.arity
let degree t = t.degree
let output_dim t = Array.length t.exponents
let exponents t = Array.to_list (Array.map Array.copy t.exponents)

let pow x n =
  let rec go acc x n =
    if n = 0 then acc
    else if n land 1 = 1 then go (acc *. x) (x *. x) (n lsr 1)
    else go acc (x *. x) (n lsr 1)
  in
  go 1.0 x n

let apply_into t raw out =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.apply_into: arity mismatch";
  if Array.length out <> Array.length t.exponents then
    invalid_arg "Polyfeat.apply_into: output dim mismatch";
  for m = 0 to Array.length t.exponents - 1 do
    let expv = t.exponents.(m) in
    let acc = ref 1.0 in
    Array.iteri (fun i e -> if e > 0 then acc := !acc *. pow raw.(i) e) expv;
    out.(m) <- !acc
  done

let apply t raw =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.apply: arity mismatch";
  let out = Array.make (Array.length t.exponents) 0.0 in
  apply_into t raw out;
  out

let design_matrix t rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Polyfeat.design_matrix: no rows";
  (* Per row, [powers.(base.(i) + e)] holds [pow raw.(i) e] for every
     exponent [e >= 1] feature [i] takes, and monomial [m] multiplies the
     powers at [slots.(m)], in feature order from 1.0: the very product
     {!apply_into} forms, with each power computed once per row. *)
  let max_exp = Array.make t.arity 0 in
  Array.iter (Array.iteri (fun i e -> if e > max_exp.(i) then max_exp.(i) <- e)) t.exponents;
  let base = Array.make t.arity 0 in
  for i = 1 to t.arity - 1 do
    base.(i) <- base.(i - 1) + max_exp.(i - 1) + 1
  done;
  let powers = Array.make (base.(t.arity - 1) + max_exp.(t.arity - 1) + 1) 1.0 in
  let slots =
    Array.map
      (fun expv ->
        let nonzero = ref [] in
        for i = t.arity - 1 downto 0 do
          if expv.(i) > 0 then nonzero := (base.(i) + expv.(i)) :: !nonzero
        done;
        Array.of_list !nonzero)
      t.exponents
  in
  Matrix.init_rows n (Array.length slots) (fun r out ->
      let raw = rows.(r) in
      if Array.length raw <> t.arity then invalid_arg "Polyfeat.design_matrix: arity mismatch";
      for i = 0 to t.arity - 1 do
        for e = 1 to max_exp.(i) do
          powers.(base.(i) + e) <- pow raw.(i) e
        done
      done;
      for m = 0 to Array.length slots - 1 do
        let slot = slots.(m) in
        let acc = ref 1.0 in
        for s = 0 to Array.length slot - 1 do
          acc := !acc *. powers.(slot.(s))
        done;
        out.(m) <- !acc
      done)
