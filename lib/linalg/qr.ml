type t = {
  m : int;
  n : int;
  (* Compact storage by columns, entry (i, j) at [a.(j).(i)]: the upper
     triangle holds R; each column's lower part holds the essential part
     of its Householder vector.  By columns because every Householder dot
     and update walks down one column. *)
  a : float array array;
  beta : float array; (* 2 / (v'v) per reflector *)
  v0 : float array; (* leading component of each Householder vector *)
}

(* Unchecked access for the innermost column loops of {!decompose}, whose
   indices stay in range by construction. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

let decompose matrix =
  let m = Matrix.rows matrix and n = Matrix.cols matrix in
  if m < n then invalid_arg "Qr.decompose: need rows >= cols";
  let a = Array.init n (Matrix.col matrix) in
  let beta = Array.make n 0.0 and v0 = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let ak = a.(k) in
    (* Householder vector annihilating entries k+1..m-1 of column k. *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      norm := !norm +. (ak.(i) *. ak.(i))
    done;
    let norm = sqrt !norm in
    if norm > 0.0 then begin
      let alpha = if ak.(k) >= 0.0 then -.norm else norm in
      let v_head = ak.(k) -. alpha in
      let vtv = ref (v_head *. v_head) in
      for i = k + 1 to m - 1 do
        vtv := !vtv +. (ak.(i) *. ak.(i))
      done;
      if !vtv > 0.0 then begin
        let b = 2.0 /. !vtv in
        beta.(k) <- b;
        v0.(k) <- v_head;
        (* Apply the reflector to the columns right of k: column j gets
           a_j -= s_j v with s_j = b (v'a_j).  Column k itself needs no
           update: its diagonal becomes [alpha] and its lower part keeps
           the Householder tail.  Columns go four at a time, one pass for
           their dots (each summed in its own row order, so one column's
           additions do not wait on another's) and one for their updates. *)
        let next = ref (k + 1) in
        while !next + 3 < n do
          let a0 = a.(!next) and a1 = a.(!next + 1) and a2 = a.(!next + 2) and a3 = a.(!next + 3) in
          let d0 = ref (v_head *. a0.(k)) and d1 = ref (v_head *. a1.(k)) in
          let d2 = ref (v_head *. a2.(k)) and d3 = ref (v_head *. a3.(k)) in
          for i = k + 1 to m - 1 do
            let v = ak.!(i) in
            d0 := !d0 +. (v *. a0.!(i));
            d1 := !d1 +. (v *. a1.!(i));
            d2 := !d2 +. (v *. a2.!(i));
            d3 := !d3 +. (v *. a3.!(i))
          done;
          let s0 = b *. !d0 and s1 = b *. !d1 and s2 = b *. !d2 and s3 = b *. !d3 in
          a0.(k) <- a0.(k) -. (s0 *. v_head);
          a1.(k) <- a1.(k) -. (s1 *. v_head);
          a2.(k) <- a2.(k) -. (s2 *. v_head);
          a3.(k) <- a3.(k) -. (s3 *. v_head);
          for i = k + 1 to m - 1 do
            let v = ak.!(i) in
            a0.!(i) <- a0.!(i) -. (s0 *. v);
            a1.!(i) <- a1.!(i) -. (s1 *. v);
            a2.!(i) <- a2.!(i) -. (s2 *. v);
            a3.!(i) <- a3.!(i) -. (s3 *. v)
          done;
          next := !next + 4
        done;
        for j = !next to n - 1 do
          let aj = a.(j) in
          let dot = ref (v_head *. aj.(k)) in
          for i = k + 1 to m - 1 do
            dot := !dot +. (ak.!(i) *. aj.!(i))
          done;
          let s = b *. !dot in
          aj.(k) <- aj.(k) -. (s *. v_head);
          for i = k + 1 to m - 1 do
            aj.!(i) <- aj.!(i) -. (s *. ak.!(i))
          done
        done;
        ak.(k) <- alpha
      end
    end
  done;
  { m; n; a; beta; v0 }

let r t = Matrix.init t.n t.n (fun i j -> if j >= i then t.a.(j).(i) else 0.0)

let q_transpose_vec t b =
  if Array.length b <> t.m then invalid_arg "Qr.q_transpose_vec: length mismatch";
  let y = Array.copy b in
  for k = 0 to t.n - 1 do
    if t.beta.(k) <> 0.0 then begin
      let ak = t.a.(k) in
      let dot = ref (t.v0.(k) *. y.(k)) in
      for i = k + 1 to t.m - 1 do
        dot := !dot +. (ak.(i) *. y.(i))
      done;
      let s = t.beta.(k) *. !dot in
      y.(k) <- y.(k) -. (s *. t.v0.(k));
      for i = k + 1 to t.m - 1 do
        y.(i) <- y.(i) -. (s *. ak.(i))
      done
    end
  done;
  Array.sub y 0 t.n

let r_diag t = Array.init t.n (fun i -> t.a.(i).(i))

let rank_deficient ?(tolerance = 1e-10) t =
  let diag = Array.init t.n (fun i -> Float.abs t.a.(i).(i)) in
  let largest = Array.fold_left Float.max 0.0 diag in
  largest = 0.0 || Array.exists (fun d -> d < tolerance *. largest) diag

let solve t b =
  let y = q_transpose_vec t b in
  let x = Array.make t.n 0.0 in
  for i = t.n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to t.n - 1 do
      acc := !acc -. (t.a.(j).(i) *. x.(j))
    done;
    if Float.abs t.a.(i).(i) < 1e-12 then failwith "Qr.solve: rank deficient";
    x.(i) <- !acc /. t.a.(i).(i)
  done;
  x
