(* Ridge-stabilized normal equations [(X'X + ridge I) w = X'y], escalating
   the penalty geometrically from [ridge] until the solve succeeds.  X'X
   and X'y are formed once; each attempt adds its penalty to a copy of the
   diagonal only, since adding the zeros off it would change no entry
   (X'X, summed from +0., holds no -0.). *)
let normal_equations ~ridge x y =
  let xt = Matrix.transpose x in
  let xtx = Matrix.mul xt x and rhs = Matrix.mul_vec xt y in
  let n = Matrix.rows xtx in
  let rec attempt ridge =
    let lhs = Matrix.copy xtx in
    for i = 0 to n - 1 do
      Matrix.set lhs i i (Matrix.get xtx i i +. ridge)
    done;
    match Matrix.solve lhs rhs with
    | w -> w
    | exception Failure _ ->
        let next = ridge *. 100.0 in
        if next > 1.0 then failwith "Lstsq.fit: singular even with ridge" else attempt next
  in
  attempt ridge

let fit_diag ?(ridge = 0.0) x y =
  if Matrix.rows x <> Array.length y then invalid_arg "Lstsq.fit: dimension mismatch";
  (* Preferred route: Householder QR (works on the design matrix directly,
     so the conditioning is not squared).  Rank-deficient systems fall back
     to ridge-stabilized normal equations, escalating the penalty —
     degree-6 polynomial bases over near-collinear features routinely
     defeat unregularized solves.  The R diagonal is kept either way: it
     is the conditioning evidence the static model checker audits. *)
  let r_diag, qr_solution =
    if Matrix.rows x >= Matrix.cols x then begin
      let qr = Qr.decompose x in
      let solution =
        if Qr.rank_deficient qr then None
        else match Qr.solve qr y with w -> Some w | exception Failure _ -> None
      in
      (Qr.r_diag qr, solution)
    end
    else ([||], None)
  in
  match qr_solution with
  | Some w -> (w, r_diag)
  | None -> (normal_equations ~ridge:(Float.max ridge 1e-8) x y, r_diag)

let fit ?ridge x y = fst (fit_diag ?ridge x y)

let predict x w = Matrix.mul_vec x w

let fit_predict ?ridge x y =
  let w = fit ?ridge x y in
  (w, predict x w)
