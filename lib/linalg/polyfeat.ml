type t = {
  arity : int;
  degree : int;
  exponents : int array array;
  (* The expansion plan, fixed at construction.  For a row [raw],
     [powers.(base.(i) + e)] holds [pow raw.(i) e] for every exponent
     [1 <= e <= max_exp.(i)] feature [i] takes, and monomial [m] is the
     product, from 1.0 and in feature order, of the powers at
     [slots.(m)]: per monomial, [1.0 *. pow x_i1 e1 *. pow x_i2 e2 ...]
     over its nonzero exponents, with each power computed once per row. *)
  max_exp : int array;
  base : int array;
  slots : int array array;
}

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

let make ~arity ~degree exponents =
  let max_exp = Array.make arity 0 in
  Array.iter (Array.iteri (fun i e -> if e > max_exp.(i) then max_exp.(i) <- e)) exponents;
  let base = Array.make arity 0 in
  for i = 1 to arity - 1 do
    base.(i) <- base.(i - 1) + max_exp.(i - 1) + 1
  done;
  let slots =
    Array.map
      (fun expv ->
        let nonzero = ref [] in
        for i = arity - 1 downto 0 do
          if expv.(i) > 0 then nonzero := (base.(i) + expv.(i)) :: !nonzero
        done;
        Array.of_list !nonzero)
      exponents
  in
  { arity; degree; exponents; max_exp; base; slots }

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
  make ~arity ~degree exponents

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
  make ~arity ~degree (Array.map Array.copy exponents)

let arity t = t.arity
let degree t = t.degree
let output_dim t = Array.length t.exponents
let exponents t = Array.to_list (Array.map Array.copy t.exponents)

let powers_dim t = t.base.(t.arity - 1) + t.max_exp.(t.arity - 1) + 1
let scratch t = Array.make (powers_dim t) 1.0

(* [x^e] by square-and-multiply: for each bit of [e] from the lowest,
   [acc *. sq] when it is set, then [sq *. sq].  Fitted weights depend on
   these exact products, so the order stays; the loop keeps its floats
   unboxed, where a recursive helper boxes them on every call. *)
let fill_powers t raw powers =
  for i = 0 to t.arity - 1 do
    for e = 1 to t.max_exp.(i) do
      let acc = ref 1.0 and sq = ref raw.(i) and n = ref e in
      while !n <> 0 do
        if !n land 1 = 1 then acc := !acc *. !sq;
        sq := !sq *. !sq;
        n := !n lsr 1
      done;
      powers.(t.base.(i) + e) <- !acc
    done
  done

let expand t powers out =
  for m = 0 to Array.length t.slots - 1 do
    let slot = t.slots.(m) in
    let acc = ref 1.0 in
    for s = 0 to Array.length slot - 1 do
      acc := !acc *. powers.(slot.(s))
    done;
    out.(m) <- !acc
  done

let apply_into t ~powers raw out =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.apply_into: arity mismatch";
  if Array.length out <> Array.length t.exponents then
    invalid_arg "Polyfeat.apply_into: output dim mismatch";
  if Array.length powers <> powers_dim t then
    invalid_arg "Polyfeat.apply_into: scratch size mismatch";
  fill_powers t raw powers;
  expand t powers out

let dot t ~powers raw weights =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.dot: arity mismatch";
  if Array.length weights <> Array.length t.exponents then
    invalid_arg "Polyfeat.dot: weights dim mismatch";
  if Array.length powers <> powers_dim t then invalid_arg "Polyfeat.dot: scratch size mismatch";
  fill_powers t raw powers;
  let acc = ref 0.0 in
  for m = 0 to Array.length t.slots - 1 do
    let slot = t.slots.(m) in
    let v = ref 1.0 in
    for s = 0 to Array.length slot - 1 do
      v := !v *. powers.(slot.(s))
    done;
    acc := !acc +. (!v *. weights.(m))
  done;
  !acc

let apply t raw =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.apply: arity mismatch";
  let out = Array.make (Array.length t.exponents) 0.0 in
  apply_into t ~powers:(scratch t) raw out;
  out

let design_matrix t rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Polyfeat.design_matrix: no rows";
  let powers = scratch t in
  Matrix.init_rows n (Array.length t.slots) (fun r out ->
      let raw = rows.(r) in
      if Array.length raw <> t.arity then invalid_arg "Polyfeat.design_matrix: arity mismatch";
      fill_powers t raw powers;
      expand t powers out)
