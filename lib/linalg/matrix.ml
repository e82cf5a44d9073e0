type t = { nrows : int; ncols : int; data : float array }

(* Unchecked access for the innermost loops of {!mul} and {!solve}, whose
   indices stay in range by construction. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

let create nrows ncols =
  if nrows <= 0 || ncols <= 0 then invalid_arg "Matrix.create: non-positive dimension";
  { nrows; ncols; data = Array.make (nrows * ncols) 0.0 }

let rows m = m.nrows
let cols m = m.ncols

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then invalid_arg "Matrix.get: out of bounds";
  m.data.((i * m.ncols) + j)

let set m i j v =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then invalid_arg "Matrix.set: out of bounds";
  m.data.((i * m.ncols) + j) <- v

let init nrows ncols f =
  let m = create nrows ncols in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      m.data.((i * ncols) + j) <- f i j
    done
  done;
  m

let of_rows arr =
  let nrows = Array.length arr in
  if nrows = 0 then invalid_arg "Matrix.of_rows: no rows";
  let ncols = Array.length arr.(0) in
  if ncols = 0 then invalid_arg "Matrix.of_rows: empty row";
  Array.iter
    (fun r -> if Array.length r <> ncols then invalid_arg "Matrix.of_rows: ragged rows")
    arr;
  init nrows ncols (fun i j -> arr.(i).(j))

let init_rows nrows ncols fill =
  let m = create nrows ncols in
  let row = Array.make ncols 0.0 in
  for i = 0 to nrows - 1 do
    fill i row;
    Array.blit row 0 m.data (i * ncols) ncols
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let row m i = Array.init m.ncols (fun j -> get m i j)

let col m j =
  if j < 0 || j >= m.ncols then invalid_arg "Matrix.col: out of bounds";
  let c = Array.make m.nrows 0.0 in
  for i = 0 to m.nrows - 1 do
    c.(i) <- m.data.((i * m.ncols) + j)
  done;
  c

let transpose m =
  let t = create m.ncols m.nrows in
  for i = 0 to m.nrows - 1 do
    for j = 0 to m.ncols - 1 do
      t.data.((j * m.nrows) + i) <- m.data.((i * m.ncols) + j)
    done
  done;
  t

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Matrix.mul: dimension mismatch";
  let inner = a.ncols and p = b.ncols in
  let c = create a.nrows p in
  let ad = a.data and bd = b.data and cd = c.data in
  for i = 0 to a.nrows - 1 do
    let ai = i * inner and ci = i * p in
    for k = 0 to inner - 1 do
      let aik = ad.(ai + k) in
      if aik <> 0.0 then begin
        let off = (k * p) - ci in
        for j = ci to ci + p - 1 do
          cd.!(j) <- cd.!(j) +. (aik *. bd.!(j + off))
        done
      end
    done
  done;
  c

let mul_vec a v =
  if a.ncols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init a.nrows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.ncols - 1 do
        acc := !acc +. (a.data.((i * a.ncols) + j) *. v.(j))
      done;
      !acc)

let add a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then invalid_arg "Matrix.add: dimension mismatch";
  { a with data = Array.mapi (fun i x -> x +. b.data.(i)) a.data }

let scale a s = { a with data = Array.map (fun x -> x *. s) a.data }

let copy m = { m with data = Array.copy m.data }

let solve a b =
  if a.nrows <> a.ncols then invalid_arg "Matrix.solve: matrix not square";
  if a.nrows <> Array.length b then invalid_arg "Matrix.solve: rhs dimension mismatch";
  let n = a.nrows in
  (* Row-major working copy, entry (i, j) at [m.((i * n) + j)]. *)
  let m = Array.copy a.data and x = Array.copy b in
  for k = 0 to n - 1 do
    let rk = k * n in
    (* Partial pivoting: pick the row with the largest entry in column k. *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs m.((i * n) + k) > Float.abs m.((!pivot * n) + k) then pivot := i
    done;
    let rp = !pivot * n in
    if Float.abs m.(rp + k) < 1e-12 then failwith "Matrix.solve: singular";
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = m.(rk + j) in
        m.(rk + j) <- m.(rp + j);
        m.(rp + j) <- tmp
      done;
      let tmp = x.(k) in
      x.(k) <- x.(!pivot);
      x.(!pivot) <- tmp
    end;
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let factor = m.(ri + k) /. m.(rk + k) in
      if factor <> 0.0 then begin
        for j = k to n - 1 do
          m.!(ri + j) <- m.!(ri + j) -. (factor *. m.!(rk + j))
        done;
        x.(i) <- x.(i) -. (factor *. x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (m.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc /. m.(ri + i)
  done;
  x

let equal ?(eps = 1e-9) a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.ncols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%.6g" (get m i j)
    done;
    Format.fprintf ppf "]@\n"
  done
