(* Unit and property tests for Opprox_linalg: Matrix, Lstsq, Polyfeat. *)

module Matrix = Opprox_linalg.Matrix
module Lstsq = Opprox_linalg.Lstsq
module Polyfeat = Opprox_linalg.Polyfeat
module Rng = Opprox_util.Rng
open Fixtures

let random_matrix rng rows cols =
  Matrix.init rows cols (fun _ _ -> Rng.range rng (-5.0) 5.0)

(* --------------------------------------------------------------- Matrix *)

let test_create_zero () =
  let m = Matrix.create 2 3 in
  check_float "zero" 0.0 (Matrix.get m 1 2);
  check_int "rows" 2 (Matrix.rows m);
  check_int "cols" 3 (Matrix.cols m)

let test_create_invalid () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Matrix.create: non-positive dimension")
    (fun () -> ignore (Matrix.create 0 3))

let test_get_set () =
  let m = Matrix.create 2 2 in
  Matrix.set m 0 1 7.5;
  check_float "set then get" 7.5 (Matrix.get m 0 1)

let test_out_of_bounds () =
  let m = Matrix.create 2 2 in
  Alcotest.check_raises "oob" (Invalid_argument "Matrix.get: out of bounds") (fun () ->
      ignore (Matrix.get m 2 0))

let test_of_rows () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "entry" 3.0 (Matrix.get m 1 0)

let test_of_rows_copies () =
  let row = [| 1.0; 2.0 |] in
  let m = Matrix.of_rows [| row |] in
  row.(0) <- 99.0;
  check_float "deep copy" 1.0 (Matrix.get m 0 0)

let test_of_rows_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows") (fun () ->
      ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_identity () =
  let i3 = Matrix.identity 3 in
  check_float "diag" 1.0 (Matrix.get i3 1 1);
  check_float "off-diag" 0.0 (Matrix.get i3 0 2)

let test_row_col () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 0.0))) "row" [| 3.0; 4.0 |] (Matrix.row m 1);
  Alcotest.(check (array (float 0.0))) "col" [| 2.0; 4.0 |] (Matrix.col m 1)

let test_transpose () =
  let m = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |] |] in
  let t = Matrix.transpose m in
  check_int "rows" 3 (Matrix.rows t);
  check_float "entry" 2.0 (Matrix.get t 1 0)

let test_mul_known () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_mul_identity () =
  let rng = Rng.create 1 in
  let a = random_matrix rng 4 4 in
  check_bool "a * I = a" true (Matrix.equal (Matrix.mul a (Matrix.identity 4)) a)

let test_mul_mismatch () =
  Alcotest.check_raises "dims" (Invalid_argument "Matrix.mul: dimension mismatch") (fun () ->
      ignore (Matrix.mul (Matrix.create 2 3) (Matrix.create 2 3)))

let test_mul_vec () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "Av" [| 5.0; 11.0 |] (Matrix.mul_vec a [| 1.0; 2.0 |])

let test_add_scale () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |] |] in
  let b = Matrix.add a (Matrix.scale a 2.0) in
  check_float "3a" 6.0 (Matrix.get b 0 1)

let test_solve_known () =
  (* 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3 *)
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matrix.solve a [| 5.0; 10.0 |] in
  check_float_eps 1e-9 "x" 1.0 x.(0);
  check_float_eps 1e-9 "y" 3.0 x.(1)

let test_solve_needs_pivoting () =
  (* Zero top-left pivot requires a row swap. *)
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Matrix.solve a [| 2.0; 3.0 |] in
  check_float_eps 1e-9 "x" 3.0 x.(0);
  check_float_eps 1e-9 "y" 2.0 x.(1)

let test_solve_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let prop_transpose_involution =
  qcheck_case "transpose involutive" QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (r, c) ->
      let rng = Rng.create ((r * 31) + c) in
      let m = random_matrix rng r c in
      Matrix.equal (Matrix.transpose (Matrix.transpose m)) m)

let prop_solve_recovers =
  qcheck_case ~count:50 "solve (A, Ax) recovers x" QCheck.(int_range 1 8) (fun n ->
      let rng = Rng.create (n + 100) in
      (* Diagonally dominant => well-conditioned and non-singular. *)
      let a =
        Matrix.init n n (fun i j ->
            if i = j then 10.0 +. Rng.uniform rng else Rng.range rng (-1.0) 1.0)
      in
      let x = Array.init n (fun _ -> Rng.range rng (-3.0) 3.0) in
      let b = Matrix.mul_vec a x in
      let solved = Matrix.solve a b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) x solved)

(* ------------------------------------------------------------------- Qr *)

module Qr = Opprox_linalg.Qr

let test_qr_r_upper_triangular () =
  let rng = Rng.create 41 in
  let a = random_matrix rng 6 4 in
  let r = Qr.r (Qr.decompose a) in
  for i = 0 to 3 do
    for j = 0 to i - 1 do
      check_float "below diagonal is zero" 0.0 (Matrix.get r i j)
    done
  done

let test_qr_solve_square () =
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Qr.solve (Qr.decompose a) [| 5.0; 10.0 |] in
  check_float_eps 1e-9 "x" 1.0 x.(0);
  check_float_eps 1e-9 "y" 3.0 x.(1)

let test_qr_least_squares () =
  (* Overdetermined: QR minimizes the residual like the normal equations. *)
  let rows = Array.init 30 (fun i -> [| 1.0; float_of_int i |]) in
  let y = Array.init 30 (fun i -> (3.0 *. float_of_int i) +. 2.0) in
  let w = Qr.solve (Qr.decompose (Matrix.of_rows rows)) y in
  check_float_eps 1e-9 "intercept" 2.0 w.(0);
  check_float_eps 1e-9 "slope" 3.0 w.(1)

let test_qr_rank_deficiency_detected () =
  let rows = Array.init 6 (fun i -> [| float_of_int i; 2.0 *. float_of_int i |]) in
  check_bool "collinear columns flagged" true
    (Qr.rank_deficient (Qr.decompose (Matrix.of_rows rows)))

let test_qr_wide_rejected () =
  Alcotest.check_raises "wide matrix" (Invalid_argument "Qr.decompose: need rows >= cols")
    (fun () -> ignore (Qr.decompose (Matrix.create 2 3)))

let prop_qr_matches_normal_equations =
  qcheck_case ~count:30 "QR agrees with well-conditioned normal equations"
    QCheck.(int_range 2 6)
    (fun n ->
      let rng = Rng.create (n * 7) in
      let rows = Array.init (3 * n) (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.0) 2.0)) in
      let truth = Array.init n (fun _ -> Rng.range rng (-3.0) 3.0) in
      let x = Matrix.of_rows rows in
      let y = Matrix.mul_vec x truth in
      let qr = Qr.decompose x in
      if Qr.rank_deficient qr then true
      else
        let w = Qr.solve qr y in
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) w truth)

(* ---------------------------------------------------------------- Lstsq *)

let test_lstsq_exact_line () =
  (* y = 2x + 1 fit from exact points. *)
  let x = Matrix.of_rows [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let w = Lstsq.fit x [| 1.0; 3.0; 5.0 |] in
  check_float_eps 1e-8 "intercept" 1.0 w.(0);
  check_float_eps 1e-8 "slope" 2.0 w.(1)

let test_lstsq_overdetermined () =
  (* Noisy points around y = x: least squares stays close. *)
  let rows = Array.init 20 (fun i -> [| 1.0; float_of_int i |]) in
  let y = Array.init 20 (fun i -> float_of_int i +. if i mod 2 = 0 then 0.1 else -0.1) in
  let w = Lstsq.fit (Matrix.of_rows rows) y in
  check_bool "slope ~ 1" true (Float.abs (w.(1) -. 1.0) < 0.02)

let test_lstsq_ridge_on_collinear () =
  (* Perfectly collinear columns are singular without ridge; fit must not
     raise thanks to penalty escalation. *)
  let rows = Array.init 6 (fun i -> [| float_of_int i; 2.0 *. float_of_int i |]) in
  let y = Array.init 6 (fun i -> float_of_int i) in
  let w = Lstsq.fit (Matrix.of_rows rows) y in
  check_bool "finite" true (Array.for_all Float.is_finite w)

let test_lstsq_predict () =
  let x = Matrix.of_rows [| [| 1.0; 2.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "predict" [| 8.0 |] (Lstsq.predict x [| 2.0; 3.0 |])

let test_lstsq_fit_predict () =
  let x = Matrix.of_rows [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let y = [| 2.0; 4.0; 8.0 |] in
  let _, preds = Lstsq.fit_predict x y in
  Array.iteri (fun i p -> check_float_eps 1e-8 "interpolates" y.(i) p) preds

(* ------------------------------------------------------------- Polyfeat *)

let binomial n k =
  let k = Stdlib.min k (n - k) in
  let num = ref 1 and den = ref 1 in
  for i = 0 to k - 1 do
    num := !num * (n - i);
    den := !den * (i + 1)
  done;
  !num / !den

let test_polyfeat_dim () =
  (* output dim = C(arity + degree, degree) *)
  List.iter
    (fun (arity, degree) ->
      let f = Polyfeat.create ~arity ~degree () in
      check_int
        (Printf.sprintf "dim(%d,%d)" arity degree)
        (binomial (arity + degree) degree)
        (Polyfeat.output_dim f))
    [ (1, 3); (2, 2); (3, 4); (5, 2) ]

let test_polyfeat_constant_first () =
  let f = Polyfeat.create ~arity:2 ~degree:2 () in
  match Polyfeat.exponents f with
  | first :: _ -> Alcotest.(check (array int)) "constant term first" [| 0; 0 |] first
  | [] -> Alcotest.fail "no exponents"

let test_polyfeat_apply_line () =
  let f = Polyfeat.create ~arity:1 ~degree:2 () in
  Alcotest.(check (array (float 1e-12))) "1, x, x^2" [| 1.0; 3.0; 9.0 |]
    (Polyfeat.apply f [| 3.0 |])

let test_polyfeat_degree2_pair () =
  let f = Polyfeat.create ~arity:2 ~degree:2 () in
  let out = Polyfeat.apply f [| 2.0; 3.0 |] in
  let sorted = Array.copy out in
  Array.sort compare sorted;
  (* 1, 2, 3, 4, 6, 9 in some graded order *)
  Alcotest.(check (array (float 1e-12))) "all monomials" [| 1.0; 2.0; 3.0; 4.0; 6.0; 9.0 |] sorted

let test_polyfeat_arity_mismatch () =
  let f = Polyfeat.create ~arity:2 ~degree:1 () in
  Alcotest.check_raises "arity" (Invalid_argument "Polyfeat.apply: arity mismatch") (fun () ->
      ignore (Polyfeat.apply f [| 1.0 |]))

let test_polyfeat_caps () =
  (* Cap the first feature at exponent 1: x^2 monomials disappear. *)
  let f = Polyfeat.create ~caps:[| 1; 2 |] ~arity:2 ~degree:2 () in
  let has_x2 =
    List.exists (fun e -> e.(0) >= 2) (Polyfeat.exponents f)
  in
  check_bool "no x^2" false has_x2;
  let has_y2 = List.exists (fun e -> e.(1) = 2) (Polyfeat.exponents f) in
  check_bool "y^2 kept" true has_y2

let test_polyfeat_design_matrix () =
  let f = Polyfeat.create ~arity:1 ~degree:1 () in
  let m = Polyfeat.design_matrix f [| [| 2.0 |]; [| 5.0 |] |] in
  check_int "rows" 2 (Matrix.rows m);
  check_float "x value" 5.0 (Matrix.get m 1 1)

let prop_polyfeat_product_structure =
  qcheck_case "monomial values multiply" QCheck.(pair (float_range 0.5 2.0) (float_range 0.5 2.0))
    (fun (x, y) ->
      let f = Polyfeat.create ~arity:2 ~degree:3 () in
      let out = Polyfeat.apply f [| x; y |] in
      let exps = Array.of_list (Polyfeat.exponents f) in
      Array.for_all2
        (fun v e -> Float.abs (v -. ((x ** float_of_int e.(0)) *. (y ** float_of_int e.(1)))) < 1e-9)
        out exps)

(* ------------------------------------------- bitwise reference kernels *)

(* The row-major kernels the least-squares path used before it was
   reworked for speed, kept verbatim apart from reading the matrix through
   its public accessors.  The rework promises every output element the same
   float operations in the same order, so fitted models stay byte-identical;
   the properties below hold it to that bit for bit. *)
module Ref = struct
  type qr = { m : int; n : int; a : float array array; beta : float array; v0 : float array }

  let qr_decompose matrix =
    let m = Matrix.rows matrix and n = Matrix.cols matrix in
    let a = Array.init m (fun i -> Array.init n (fun j -> Matrix.get matrix i j)) in
    let beta = Array.make n 0.0 and v0 = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let norm = ref 0.0 in
      for i = k to m - 1 do
        norm := !norm +. (a.(i).(k) *. a.(i).(k))
      done;
      let norm = sqrt !norm in
      if norm > 0.0 then begin
        let alpha = if a.(k).(k) >= 0.0 then -.norm else norm in
        let v_head = a.(k).(k) -. alpha in
        let vtv = ref (v_head *. v_head) in
        for i = k + 1 to m - 1 do
          vtv := !vtv +. (a.(i).(k) *. a.(i).(k))
        done;
        if !vtv > 0.0 then begin
          let b = 2.0 /. !vtv in
          beta.(k) <- b;
          v0.(k) <- v_head;
          for j = k to n - 1 do
            let dot = ref (v_head *. a.(k).(j)) in
            for i = k + 1 to m - 1 do
              dot := !dot +. (a.(i).(k) *. a.(i).(j))
            done;
            let s = b *. !dot in
            a.(k).(j) <- a.(k).(j) -. (s *. v_head);
            for i = k + 1 to m - 1 do
              if j = k then () else a.(i).(j) <- a.(i).(j) -. (s *. a.(i).(k))
            done
          done;
          a.(k).(k) <- alpha
        end
      end
    done;
    { m; n; a; beta; v0 }

  let qr_r_diag t = Array.init t.n (fun i -> t.a.(i).(i))

  let qr_rank_deficient t =
    let diag = Array.init t.n (fun i -> Float.abs t.a.(i).(i)) in
    let largest = Array.fold_left Float.max 0.0 diag in
    largest = 0.0 || Array.exists (fun d -> d < 1e-10 *. largest) diag

  let qr_solve t b =
    let y = Array.copy b in
    for k = 0 to t.n - 1 do
      if t.beta.(k) <> 0.0 then begin
        let dot = ref (t.v0.(k) *. y.(k)) in
        for i = k + 1 to t.m - 1 do
          dot := !dot +. (t.a.(i).(k) *. y.(i))
        done;
        let s = t.beta.(k) *. !dot in
        y.(k) <- y.(k) -. (s *. t.v0.(k));
        for i = k + 1 to t.m - 1 do
          y.(i) <- y.(i) -. (s *. t.a.(i).(k))
        done
      end
    done;
    let x = Array.make t.n 0.0 in
    for i = t.n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to t.n - 1 do
        acc := !acc -. (t.a.(i).(j) *. x.(j))
      done;
      if Float.abs t.a.(i).(i) < 1e-12 then failwith "Qr.solve: rank deficient";
      x.(i) <- !acc /. t.a.(i).(i)
    done;
    x

  let matrix_mul a b =
    let c = Matrix.create (Matrix.rows a) (Matrix.cols b) in
    for i = 0 to Matrix.rows a - 1 do
      for k = 0 to Matrix.cols a - 1 do
        let aik = Matrix.get a i k in
        if aik <> 0.0 then
          for j = 0 to Matrix.cols b - 1 do
            Matrix.set c i j (Matrix.get c i j +. (aik *. Matrix.get b k j))
          done
      done
    done;
    c

  let matrix_solve a b =
    let n = Matrix.rows a in
    let m = Matrix.copy a and x = Array.copy b in
    let get = Matrix.get m and set = Matrix.set m in
    for k = 0 to n - 1 do
      let pivot = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (get i k) > Float.abs (get !pivot k) then pivot := i
      done;
      if Float.abs (get !pivot k) < 1e-12 then failwith "Matrix.solve: singular";
      if !pivot <> k then begin
        for j = 0 to n - 1 do
          let tmp = get k j in
          set k j (get !pivot j);
          set !pivot j tmp
        done;
        let tmp = x.(k) in
        x.(k) <- x.(!pivot);
        x.(!pivot) <- tmp
      end;
      for i = k + 1 to n - 1 do
        let factor = get i k /. get k k in
        if factor <> 0.0 then begin
          for j = k to n - 1 do
            set i j (get i j -. (factor *. get k j))
          done;
          x.(i) <- x.(i) -. (factor *. x.(k))
        end
      done
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get i j *. x.(j))
      done;
      x.(i) <- !acc /. get i i
    done;
    x

  let normal_equations ?(ridge = 0.0) x y =
    let xt = Matrix.transpose x in
    let xtx = matrix_mul xt x in
    let n = Matrix.rows xtx in
    let lhs =
      if ridge = 0.0 then xtx else Matrix.add xtx (Matrix.scale (Matrix.identity n) ridge)
    in
    let rhs = Matrix.mul_vec xt y in
    matrix_solve lhs rhs

  let fit_diag ?(ridge = 0.0) x y =
    let r_diag, qr_solution =
      if Matrix.rows x >= Matrix.cols x then begin
        let qr = qr_decompose x in
        let solution =
          if qr_rank_deficient qr then None
          else match qr_solve qr y with w -> Some w | exception Failure _ -> None
        in
        (qr_r_diag qr, solution)
      end
      else ([||], None)
    in
    match qr_solution with
    | Some w -> (w, r_diag)
    | None ->
        let rec attempt ridge =
          match normal_equations ~ridge x y with
          | w -> w
          | exception Failure _ ->
              let next = if ridge = 0.0 then 1e-8 else ridge *. 100.0 in
              if next > 1.0 then failwith "Lstsq.fit: singular even with ridge"
              else attempt next
        in
        (attempt (Float.max ridge 1e-8), r_diag)

  (* Polyfeat's per-monomial expansion before its plan was compiled into
     [Polyfeat.t]. *)
  let pow x n =
    let rec go acc x n =
      if n = 0 then acc
      else if n land 1 = 1 then go (acc *. x) (x *. x) (n lsr 1)
      else go acc (x *. x) (n lsr 1)
    in
    go 1.0 x n

  let polyfeat_apply_into exponents raw out =
    for m = 0 to Array.length exponents - 1 do
      let expv = exponents.(m) in
      let acc = ref 1.0 in
      Array.iteri (fun i e -> if e > 0 then acc := !acc *. pow raw.(i) e) expv;
      out.(m) <- !acc
    done
end

let bits a = Array.map Int64.bits_of_float a

(* Same bits, or the same [Failure]. *)
let same_outcome f g =
  let run h = match h () with v -> Ok (bits v) | exception Failure m -> Error m in
  run f = run g

(* A random matrix exercising the kernels' branches: entries spread over
   [scale], a share of exact zeros (the product's skipped terms), and
   optionally some columns duplicated so the design is rank-deficient. *)
let wild_matrix rng ~rows ~cols ~scale ~dup =
  let m =
    Matrix.init rows cols (fun _ _ ->
        if Rng.int rng 5 = 0 then 0.0 else scale *. Rng.range rng (-1.0) 1.0)
  in
  for _ = 1 to dup do
    if cols >= 2 then begin
      let src = Rng.int rng cols and dst = Rng.int rng cols in
      for i = 0 to rows - 1 do
        Matrix.set m i dst (Matrix.get m i src)
      done
    end
  done;
  m

let shape_gen =
  (* seed, rows, cols, duplicated columns, log10 of the entry scale *)
  QCheck.(
    map
      (fun (seed, (rows, cols), dup, e) -> (seed, rows, cols, dup, e))
      (quad small_nat
         (pair (int_range 1 40) (int_range 1 16))
         (int_range 0 3) (int_range (-6) 6)))

let prop_qr_bitwise =
  qcheck_case ~count:300 "qr decompose/solve/r_diag bitwise as reference" shape_gen
    (fun (seed, rows, cols, dup, e) ->
      let rows = Stdlib.max rows cols in
      let rng = Rng.create seed in
      let x = wild_matrix rng ~rows ~cols ~scale:(10.0 ** float_of_int e) ~dup in
      let y = Array.init rows (fun _ -> Rng.range rng (-5.0) 5.0) in
      let qr = Qr.decompose x and ref_qr = Ref.qr_decompose x in
      bits (Qr.r_diag qr) = bits (Ref.qr_r_diag ref_qr)
      && Qr.rank_deficient qr = Ref.qr_rank_deficient ref_qr
      && same_outcome (fun () -> Qr.solve qr y) (fun () -> Ref.qr_solve ref_qr y))

let prop_fit_diag_bitwise =
  qcheck_case ~count:300 "lstsq fit_diag bitwise as reference (tall, wide, rank-deficient)"
    QCheck.(pair shape_gen (int_range 0 2))
    (fun ((seed, rows, cols, dup, e), ridge) ->
      let rng = Rng.create seed in
      let x = wild_matrix rng ~rows ~cols ~scale:(10.0 ** float_of_int e) ~dup in
      let y = Array.init rows (fun _ -> Rng.range rng (-5.0) 5.0) in
      let ridge = [| 0.0; 1e-9; 1e-3 |].(ridge) in
      (* Weights (length [cols] on both sides), then the R diagonal. *)
      same_outcome
        (fun () -> let w, d = Lstsq.fit_diag ~ridge x y in Array.append w d)
        (fun () -> let w, d = Ref.fit_diag ~ridge x y in Array.append w d))

let test_fit_diag_paths_covered () =
  (* The generator above must reach every branch it claims to: the QR
     solve, the normal-equation fallback, an escalated ridge, and the
     outright failure. *)
  let solves_at ridge x y =
    match Ref.normal_equations ~ridge x y with _ -> true | exception Failure _ -> false
  in
  let rng = Rng.create 7 in
  let tall = wild_matrix rng ~rows:30 ~cols:6 ~scale:1.0 ~dup:0 in
  let dup = wild_matrix rng ~rows:30 ~cols:6 ~scale:1.0 ~dup:2 in
  let big = wild_matrix rng ~rows:30 ~cols:6 ~scale:1e5 ~dup:2 in
  let huge = wild_matrix rng ~rows:30 ~cols:6 ~scale:1e12 ~dup:2 in
  let wide = wild_matrix rng ~rows:4 ~cols:9 ~scale:1.0 ~dup:0 in
  let y = Array.init 30 float_of_int in
  let same x =
    let y = Array.sub y 0 (Matrix.rows x) in
    check_bool "bitwise" true
      (same_outcome
         (fun () -> fst (Lstsq.fit_diag ~ridge:1e-9 x y))
         (fun () -> fst (Ref.fit_diag ~ridge:1e-9 x y)))
  in
  check_bool "tall solves by QR" false (Ref.qr_rank_deficient (Ref.qr_decompose tall));
  check_bool "duplicates fall back" true (Ref.qr_rank_deficient (Ref.qr_decompose dup));
  check_bool "duplicates solve at the first ridge" true (solves_at 1e-8 dup y);
  check_bool "large scale escalates" true (solves_at 1.0 big y && not (solves_at 1e-8 big y));
  check_bool "huge scale fails outright" false (solves_at 1.0 huge y);
  check_int "wide has no R diagonal" 0 (Array.length (snd (Lstsq.fit_diag wide (Array.make 4 1.0))));
  List.iter same [ tall; dup; big; huge; wide ]

let matrix_bits m = Array.init (Matrix.rows m) (fun i -> bits (Matrix.row m i))

let prop_matrix_solve_bitwise =
  (* Scales down to 1e-14 put pivots on both sides of the singularity
     threshold. *)
  qcheck_case ~count:300 "matrix solve bitwise as reference"
    QCheck.(quad small_nat (int_range 1 12) (int_range 0 2) (int_range (-14) 2))
    (fun (seed, n, dup, e) ->
      let rng = Rng.create seed in
      let a = wild_matrix rng ~rows:n ~cols:n ~scale:(10.0 ** float_of_int e) ~dup in
      let b = Array.init n (fun _ -> Rng.range rng (-5.0) 5.0) in
      same_outcome (fun () -> Matrix.solve a b) (fun () -> Ref.matrix_solve a b))

let prop_matrix_mul_bitwise =
  qcheck_case ~count:300 "matrix mul bitwise as reference"
    QCheck.(quad small_nat (int_range 1 12) (int_range 1 12) (int_range 1 12))
    (fun (seed, r, k, c) ->
      let rng = Rng.create seed in
      let a = wild_matrix rng ~rows:r ~cols:k ~scale:1.0 ~dup:0 in
      let b = wild_matrix rng ~rows:k ~cols:c ~scale:1e3 ~dup:0 in
      (* An infinite entry tells a skipped zero term from 0 * inf = nan. *)
      Matrix.set b (Rng.int rng k) (Rng.int rng c) Float.infinity;
      matrix_bits (Matrix.mul a b) = matrix_bits (Ref.matrix_mul a b))

let prop_design_matrix_rowwise =
  qcheck_case ~count:200 "design matrix bitwise as row-wise apply, with and without caps"
    QCheck.(quad small_nat (int_range 1 5) (int_range 0 6) bool)
    (fun (seed, arity, degree, capped) ->
      let rng = Rng.create seed in
      let caps = if capped then Some (Array.init arity (fun _ -> Rng.int rng (degree + 2))) else None in
      let f = Polyfeat.create ?caps ~arity ~degree () in
      let rows =
        Array.init (1 + Rng.int rng 20) (fun _ ->
            Array.init arity (fun _ -> if Rng.int rng 6 = 0 then 0.0 else Rng.range rng (-3.0) 3.0))
      in
      let x = Polyfeat.design_matrix f rows in
      Matrix.rows x = Array.length rows
      && Matrix.cols x = Polyfeat.output_dim f
      && matrix_bits x = Array.map (fun r -> bits (Polyfeat.apply f r)) rows)

(* Entries that take every branch of the float arithmetic: zeros of both
   signs, negatives, magnitudes whose powers overflow or underflow, the
   infinities and NaN. *)
let wild_float rng =
  match Rng.int rng 10 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> Float.infinity
  | 3 -> Float.neg_infinity
  | 4 -> Float.nan
  | 5 -> Rng.range rng (-1e80) 1e80
  | 6 -> Rng.range rng (-1e-80) 1e-80
  | _ -> Rng.range rng (-3.0) 3.0

let prop_apply_into_as_reference =
  qcheck_case ~count:300 "compiled apply_into and dot bitwise as the per-monomial loop"
    QCheck.(quad small_nat (int_range 1 5) (int_range 0 6) bool)
    (fun (seed, arity, degree, capped) ->
      let rng = Rng.create seed in
      let caps =
        if capped then Some (Array.init arity (fun _ -> Rng.int rng (degree + 2))) else None
      in
      let f = Polyfeat.create ?caps ~arity ~degree () in
      (* The same map rebuilt as a loaded model rebuilds it. *)
      let g = Polyfeat.of_exponents (Array.of_list (Polyfeat.exponents f)) in
      let exponents = Array.of_list (Polyfeat.exponents f) in
      let dim = Polyfeat.output_dim f in
      let powers = Polyfeat.scratch f and out = Array.make dim 0.0 in
      let powers_g = Polyfeat.scratch g and out_g = Array.make dim 0.0 in
      let expected = Array.make dim 0.0 in
      (* Same bits, except that a product of two NaNs may carry either
         one's payload: which one is the instruction's operand order,
         which the code generator picks, not the arithmetic. *)
      let same a b =
        Array.for_all2
          (fun x y ->
            Int64.bits_of_float x = Int64.bits_of_float y || (Float.is_nan x && Float.is_nan y))
          a b
      in
      (* One scratch pair across all rows: no row may see another's powers. *)
      List.for_all
        (fun _ ->
          let raw = Array.init arity (fun _ -> wild_float rng) in
          Ref.polyfeat_apply_into exponents raw expected;
          Polyfeat.apply_into f ~powers raw out;
          Polyfeat.apply_into g ~powers:powers_g raw out_g;
          (* The fused sum: the expansion's dot product with weights. *)
          let weights = Array.init dim (fun _ -> wild_float rng) in
          let dot = ref 0.0 in
          Array.iteri (fun m v -> dot := !dot +. (v *. weights.(m))) expected;
          same out expected && same out_g expected
          && same [| Polyfeat.dot f ~powers raw weights |] [| !dot |])
        (List.init 20 Fun.id))

let test_exponent_order_unchanged () =
  (* The basis order fitted weights are stored in: every exponent vector of
     total degree <= d in lexicographic order, stably sorted by total. *)
  let reference arity degree =
    let acc = ref [] and current = Array.make arity 0 in
    let rec go pos remaining =
      if pos = arity then acc := Array.copy current :: !acc
      else
        for e = 0 to remaining do
          current.(pos) <- e;
          go (pos + 1) (remaining - e);
          current.(pos) <- 0
        done
    in
    go 0 degree;
    let total v = Array.fold_left ( + ) 0 v in
    List.stable_sort (fun a b -> compare (total a) (total b)) (List.rev !acc)
  in
  for arity = 1 to 5 do
    for degree = 0 to 6 do
      Alcotest.(check (list (array int)))
        (Printf.sprintf "arity %d degree %d" arity degree)
        (reference arity degree)
        (Polyfeat.exponents (Polyfeat.create ~arity ~degree ()))
    done
  done

let suite =
  [
    ( "matrix",
      [
        Alcotest.test_case "create zero" `Quick test_create_zero;
        Alcotest.test_case "create invalid" `Quick test_create_invalid;
        Alcotest.test_case "get/set" `Quick test_get_set;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        Alcotest.test_case "of_rows" `Quick test_of_rows;
        Alcotest.test_case "of_rows copies" `Quick test_of_rows_copies;
        Alcotest.test_case "of_rows ragged" `Quick test_of_rows_ragged;
        Alcotest.test_case "identity" `Quick test_identity;
        Alcotest.test_case "row/col" `Quick test_row_col;
        Alcotest.test_case "transpose" `Quick test_transpose;
        Alcotest.test_case "mul known" `Quick test_mul_known;
        Alcotest.test_case "mul identity" `Quick test_mul_identity;
        Alcotest.test_case "mul mismatch" `Quick test_mul_mismatch;
        Alcotest.test_case "mul_vec" `Quick test_mul_vec;
        Alcotest.test_case "add/scale" `Quick test_add_scale;
        Alcotest.test_case "solve known" `Quick test_solve_known;
        Alcotest.test_case "solve pivoting" `Quick test_solve_needs_pivoting;
        Alcotest.test_case "solve singular" `Quick test_solve_singular;
        prop_transpose_involution;
        prop_solve_recovers;
        prop_matrix_solve_bitwise;
        prop_matrix_mul_bitwise;
      ] );
    ( "qr",
      [
        Alcotest.test_case "R upper triangular" `Quick test_qr_r_upper_triangular;
        Alcotest.test_case "solve square" `Quick test_qr_solve_square;
        Alcotest.test_case "least squares" `Quick test_qr_least_squares;
        Alcotest.test_case "rank deficiency" `Quick test_qr_rank_deficiency_detected;
        Alcotest.test_case "wide rejected" `Quick test_qr_wide_rejected;
        prop_qr_matches_normal_equations;
        prop_qr_bitwise;
      ] );
    ( "lstsq",
      [
        Alcotest.test_case "exact line" `Quick test_lstsq_exact_line;
        Alcotest.test_case "overdetermined" `Quick test_lstsq_overdetermined;
        Alcotest.test_case "ridge on collinear" `Quick test_lstsq_ridge_on_collinear;
        Alcotest.test_case "predict" `Quick test_lstsq_predict;
        Alcotest.test_case "fit_predict" `Quick test_lstsq_fit_predict;
        Alcotest.test_case "bitwise paths covered" `Quick test_fit_diag_paths_covered;
        prop_fit_diag_bitwise;
      ] );
    ( "polyfeat",
      [
        Alcotest.test_case "output dim" `Quick test_polyfeat_dim;
        Alcotest.test_case "constant first" `Quick test_polyfeat_constant_first;
        Alcotest.test_case "apply line" `Quick test_polyfeat_apply_line;
        Alcotest.test_case "degree-2 pair" `Quick test_polyfeat_degree2_pair;
        Alcotest.test_case "arity mismatch" `Quick test_polyfeat_arity_mismatch;
        Alcotest.test_case "exponent caps" `Quick test_polyfeat_caps;
        Alcotest.test_case "design matrix" `Quick test_polyfeat_design_matrix;
        prop_polyfeat_product_structure;
        prop_design_matrix_rowwise;
        prop_apply_into_as_reference;
        Alcotest.test_case "exponent order unchanged" `Quick test_exponent_order_unchanged;
      ] );
  ]
