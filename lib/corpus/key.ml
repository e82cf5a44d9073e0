(* The bits in lowercase hex with no leading zeros, read as unsigned:
   the text of [Printf.sprintf "%Lx"], without its format interpreter. *)
let add_float_bits b x =
  let bits = Int64.bits_of_float x in
  (* index of the highest nonzero nibble; 0 for all-zero bits *)
  let rec top k =
    if k = 15 || Int64.shift_right_logical bits (4 * (k + 1)) = 0L then k else top (k + 1)
  in
  for k = top 0 downto 0 do
    Buffer.add_char b
      "0123456789abcdef".[Int64.to_int (Int64.shift_right_logical bits (4 * k)) land 15]
  done

let group ~app ~input ~models_hash =
  let b =
    Buffer.create
      (String.length app + String.length models_hash + (17 * Array.length input) + 4)
  in
  Buffer.add_string b app;
  Buffer.add_char b '|';
  Array.iter
    (fun x ->
      add_float_bits b x;
      Buffer.add_char b '.')
    input;
  Buffer.add_char b '|';
  Buffer.add_string b models_hash;
  Buffer.contents b

let of_group ~group ~budget =
  let b = Buffer.create (String.length group + 18) in
  Buffer.add_string b group;
  Buffer.add_char b '|';
  add_float_bits b budget;
  Buffer.contents b

let fingerprint ~app ~input ~budget ~models_hash =
  of_group ~group:(group ~app ~input ~models_hash) ~budget

(* Chained SplitMix64 finalisers over little-endian 8-byte chunks; the
   tail chunk is zero-padded and the length mixed in so "a" and "a\000"
   differ.  Quality is far beyond what the corpus index needs (equal-hash
   runs are resolved by comparing stored keys anyway). *)
let hash64 s =
  let n = String.length s in
  let chunk off =
    let v = ref 0L in
    for i = 7 downto 0 do
      let byte = if off + i < n then Char.code s.[off + i] else 0 in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
    done;
    !v
  in
  let h = ref (Opprox_util.Rng.mix64 (Int64.of_int n)) in
  let off = ref 0 in
  while !off < n do
    h := Opprox_util.Rng.mix64 (Int64.logxor !h (chunk !off));
    off := !off + 8
  done;
  !h
