(* Unit and property tests for Opprox_util: Rng, Stats, Table, Shardmap. *)

module Rng = Opprox_util.Rng
module Shardmap = Opprox_util.Shardmap
module Stats = Opprox_util.Stats
module Table = Opprox_util.Table
open Fixtures

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 5 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  check_bool "copy continues identically" true (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "split streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_uniform_range () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.uniform r in
    check_bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniform_mean () =
  let r = Rng.create 123 in
  let xs = Array.init 10_000 (fun _ -> Rng.uniform r) in
  check_bool "mean near 0.5" true (Float.abs (Stats.mean xs -. 0.5) < 0.02)

let test_rng_range () =
  let r = Rng.create 77 in
  for _ = 1 to 200 do
    let v = Rng.range r (-3.0) 5.0 in
    check_bool "in [-3,5)" true (v >= -3.0 && v < 5.0)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 1234 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian r) in
  check_bool "mean ~ 0" true (Float.abs (Stats.mean xs) < 0.05);
  check_bool "stddev ~ 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.05)

let test_rng_gaussian_scaled () =
  let r = Rng.create 55 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian_scaled r ~mean:3.0 ~sigma:0.5) in
  check_bool "mean ~ 3" true (Float.abs (Stats.mean xs -. 3.0) < 0.05);
  check_bool "stddev ~ 0.5" true (Float.abs (Stats.stddev xs -. 0.5) < 0.05)

let test_rng_shuffle_permutation () =
  let r = Rng.create 8 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_choice () =
  let r = Rng.create 14 in
  for _ = 1 to 100 do
    let v = Rng.choice r [| 1; 2; 3 |] in
    check_bool "chosen from array" true (List.mem v [ 1; 2; 3 ])
  done

let test_rng_choice_empty () =
  let r = Rng.create 0 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choice: empty array") (fun () ->
      ignore (Rng.choice r [||]))

let test_sample_without_replacement () =
  let r = Rng.create 21 in
  let s = Rng.sample_without_replacement r 5 10 in
  check_int "length" 5 (List.length s);
  check_int "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun i -> check_bool "in range" true (i >= 0 && i < 10)) s

let test_sample_all () =
  let r = Rng.create 22 in
  let s = Rng.sample_without_replacement r 10 10 in
  Alcotest.(check (list int)) "all indices" (List.init 10 (fun i -> i)) (List.sort compare s)

let prop_int_in_bounds =
  qcheck_case "rng int stays in bounds" QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* ---------------------------------------------------------------- Stats *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])
let test_sum_empty () = check_float "empty sum" 0.0 (Stats.sum [||])

let test_sum_kahan () =
  (* Adding many tiny values to a large one: naive summation loses them. *)
  let xs = Array.make 10_001 1e-12 in
  xs.(0) <- 1.0;
  check_bool "kahan keeps precision" true (Stats.sum xs > 1.0)

let test_variance () =
  check_float "variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_stddev_constant () = check_float "constant stddev" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |])
let test_min_max () =
  check_float "min" (-2.0) (Stats.min [| 3.0; -2.0; 7.0 |]);
  check_float "max" 7.0 (Stats.max [| 3.0; -2.0; 7.0 |])

let test_median_odd () = check_float "odd median" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])
let test_median_even () = check_float "even median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_quantile_bounds () =
  let xs = [| 5.0; 1.0; 3.0 |] in
  check_float "q0 = min" 1.0 (Stats.quantile xs 0.0);
  check_float "q1 = max" 5.0 (Stats.quantile xs 1.0)

let test_quantile_interpolates () =
  check_float "q0.25 of 0..3" 0.75 (Stats.quantile [| 0.0; 1.0; 2.0; 3.0 |] 0.25)

let test_quantile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  let _ = Stats.quantile xs 0.5 in
  Alcotest.(check (array (float 0.0))) "unchanged" [| 3.0; 1.0; 2.0 |] xs

let test_quantile_invalid () =
  Alcotest.check_raises "p > 1" (Invalid_argument "Stats.quantile: p outside [0,1]") (fun () ->
      ignore (Stats.quantile [| 1.0 |] 1.5))

let test_pearson_perfect () =
  check_float_eps 1e-9 "correlated" 1.0 (Stats.pearson [| 1.0; 2.0; 3.0 |] [| 2.0; 4.0; 6.0 |])

let test_pearson_anticorrelated () =
  check_float_eps 1e-9 "anti" (-1.0) (Stats.pearson [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |])

let test_pearson_constant () =
  check_float "zero-variance side" 0.0 (Stats.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |])

let test_r2_perfect () =
  check_float "perfect" 1.0
    (Stats.r2_score ~actual:[| 1.0; 2.0; 3.0 |] ~predicted:[| 1.0; 2.0; 3.0 |])

let test_r2_mean_prediction () =
  check_float "mean predictor scores 0" 0.0
    (Stats.r2_score ~actual:[| 1.0; 2.0; 3.0 |] ~predicted:[| 2.0; 2.0; 2.0 |])

let test_r2_constant_actual () =
  check_float "constant actual, exact prediction" 1.0
    (Stats.r2_score ~actual:[| 2.0; 2.0 |] ~predicted:[| 2.0; 2.0 |]);
  check_float "constant actual, wrong prediction" 0.0
    (Stats.r2_score ~actual:[| 2.0; 2.0 |] ~predicted:[| 1.0; 2.0 |])

let test_mae () =
  check_float "mae" 0.5 (Stats.mae ~actual:[| 1.0; 2.0 |] ~predicted:[| 1.5; 2.5 |])

let test_rmse () =
  check_float "rmse" 2.0 (Stats.rmse ~actual:[| 0.0; 0.0 |] ~predicted:[| 2.0; -2.0 |])

let test_geometric_mean () = check_float "geo mean" 2.0 (Stats.geometric_mean [| 1.0; 4.0 |])

let test_geometric_mean_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Stats.geometric_mean: non-positive value")
    (fun () -> ignore (Stats.geometric_mean [| 1.0; -1.0 |]))

let test_normalize () =
  Alcotest.(check (array (float 1e-9))) "sums to one" [| 0.25; 0.75 |]
    (Stats.normalize [| 1.0; 3.0 |])

let test_normalize_zero () =
  Alcotest.(check (array (float 1e-9))) "uniform when all-zero" [| 0.5; 0.5 |]
    (Stats.normalize [| 0.0; 0.0 |])

let test_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Stats.mean [||]))

let prop_quantile_monotone =
  qcheck_case "quantile monotone in p"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 30) (float_range (-100.) 100.))
              (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.quantile xs lo <= Stats.quantile xs hi +. 1e-9)

let prop_median_is_middle_quantile =
  qcheck_case "median = quantile 0.5"
    QCheck.(array_of_size (QCheck.Gen.int_range 1 30) (float_range (-50.) 50.))
    (fun xs -> Float.abs (Stats.median xs -. Stats.quantile xs 0.5) < 1e-9)

let prop_normalize_sums_to_one =
  qcheck_case "normalize sums to 1"
    QCheck.(array_of_size (QCheck.Gen.int_range 1 20) (float_range 0. 100.))
    (fun xs -> Float.abs (Stats.sum (Stats.normalize xs) -. 1.0) < 1e-9)

(* ---------------------------------------------------------------- Table *)

let test_table_basic () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  let rendered = Table.render t in
  check_bool "contains header" true (String.length rendered > 0);
  let lines = String.split_on_char '\n' rendered in
  check_int "header + sep + 2 rows + trailing" 5 (List.length lines)

let test_table_width_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_alignment () =
  let t = Table.create [ "k"; "v" ] in
  Table.add_row t [ "x"; "1" ];
  let line = List.nth (String.split_on_char '\n' (Table.render t)) 2 in
  check_bool "value right-aligned" true (String.length line >= 4)

let test_fmt_float () =
  Alcotest.(check string) "integer" "3" (Table.fmt_float 3.0);
  Alcotest.(check string) "fraction" "3.1400" (Table.fmt_float 3.14)

let test_to_csv () =
  let t = Table.create [ "name"; "note" ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "has,comma"; "quote\"inside" ];
  let csv = Table.to_csv t in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "name,note" (List.nth lines 0);
  Alcotest.(check string) "plain row" "plain,1" (List.nth lines 1);
  Alcotest.(check string) "quoted row" "\"has,comma\",\"quote\"\"inside\"" (List.nth lines 2)

let test_float_row () =
  let t = Table.create [ "k"; "a"; "b" ] in
  Table.add_float_row t "row" [ 1.0; 2.5 ];
  check_bool "renders" true (String.length (Table.render t) > 0)

(* ----------------------------------------------------------------- Plot *)

module Plot = Opprox_util.Plot

let test_plot_empty () =
  Alcotest.(check string) "no points, no plot" "" (Plot.render [ Plot.series "s" [||] ])

let test_plot_nonfinite_filtered () =
  Alcotest.(check string) "only nan points" ""
    (Plot.render [ Plot.series "s" [| (Float.nan, 1.0); (1.0, Float.infinity) |] ])

let test_plot_contains_glyphs () =
  let rendered =
    Plot.render ~width:20 ~height:5
      [ Plot.series ~glyph:'o' "a" [| (0.0, 0.0); (1.0, 1.0) |] ]
  in
  check_bool "glyph present" true (String.contains rendered 'o');
  check_bool "legend present" true
    (String.length rendered > 0
    &&
    let lines = String.split_on_char '\n' rendered in
    List.exists (fun l -> l = "  o = a") lines)

let test_plot_dimensions () =
  let rendered = Plot.render ~width:30 ~height:7 [ Plot.series "s" [| (0.0, 0.0); (2.0, 3.0) |] ] in
  let lines = String.split_on_char '\n' rendered in
  (* 7 grid rows + axis + tick labels + x label-less + legend *)
  check_bool "at least 9 lines" true (List.length lines >= 9)

let test_plot_collision_marker () =
  (* Two series on the same cell render '?'. *)
  let rendered =
    Plot.render ~width:10 ~height:3
      [
        Plot.series ~glyph:'o' "a" [| (0.0, 0.0); (1.0, 1.0) |];
        Plot.series ~glyph:'x' "b" [| (0.0, 0.0) |];
      ]
  in
  check_bool "collision marked" true (String.contains rendered '?')

let test_plot_degenerate_range () =
  (* All points identical: padding keeps the range non-empty. *)
  let rendered = Plot.render [ Plot.series "s" [| (2.0, 2.0); (2.0, 2.0) |] ] in
  check_bool "renders" true (String.length rendered > 0)

let test_auto_glyphs () =
  let ss = Plot.auto_glyphs [ [| (0.0, 0.0) |]; [| (1.0, 1.0) |] ] [ "a"; "b" ] in
  match ss with
  | [ a; b ] ->
      check_bool "distinct glyphs" true (a.Plot.glyph <> b.Plot.glyph)
  | _ -> Alcotest.fail "expected two series"

let prop_csv_roundtrip_cells =
  (* Every CSV line has exactly the header's column count when cells are
     quoted correctly (no embedded newlines in this property's inputs). *)
  qcheck_case "csv keeps column count"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (string_gen_of_size (QCheck.Gen.int_range 0 8) QCheck.Gen.printable))
    (fun cells ->
      let cells = List.map (String.map (fun c -> if c = '\n' || c = '\r' then '_' else c)) cells in
      let t = Table.create (List.map (fun _ -> "h") cells) in
      Table.add_row t cells;
      let csv = Table.to_csv t in
      (* count unquoted commas on the data line *)
      let lines = String.split_on_char '\n' csv in
      let data = List.nth lines 1 in
      let commas = ref 0 and in_quotes = ref false in
      String.iter
        (fun c ->
          if c = '"' then in_quotes := not !in_quotes
          else if c = ',' && not !in_quotes then incr commas)
        data;
      !commas = List.length cells - 1)

(* ------------------------------------------------------------ Shardmap *)

(* The FIFO bound the driver's checkpoint table relies on: at capacity 1
   each insert evicts the previous entry, raising the capacity lets the
   table grow again, and [clear] empties it. *)
let test_shardmap_capacity_and_clear () =
  let m = Shardmap.create ~name:"t.capacity" ~capacity:1 () in
  check_bool "first insert kept" true (Shardmap.add m "a" 1);
  check_bool "second insert kept" true (Shardmap.add m "b" 2);
  check_bool "oldest evicted" true (Shardmap.find m "a" = None);
  check_bool "newest resident" true (Shardmap.find m "b" = Some 2);
  check_bool "first writer wins" false (Shardmap.add m "b" 3);
  check_int "capacity bound respected" 1 (Shardmap.size m);
  Shardmap.set_capacity m 2;
  ignore (Shardmap.add m "c" 3);
  check_int "capacity raise allows growth" 2 (Shardmap.size m);
  Shardmap.clear m;
  check_int "clear empties the table" 0 (Shardmap.size m)

let suite =
  [
    ( "shardmap",
      [ Alcotest.test_case "capacity bound + clear" `Quick test_shardmap_capacity_and_clear ] );
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "range" `Quick test_rng_range;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "gaussian scaled" `Quick test_rng_gaussian_scaled;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "choice" `Quick test_rng_choice;
        Alcotest.test_case "choice empty" `Quick test_rng_choice_empty;
        Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        Alcotest.test_case "sample all" `Quick test_sample_all;
        prop_int_in_bounds;
      ] );
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "sum empty" `Quick test_sum_empty;
        Alcotest.test_case "kahan sum" `Quick test_sum_kahan;
        Alcotest.test_case "variance" `Quick test_variance;
        Alcotest.test_case "stddev constant" `Quick test_stddev_constant;
        Alcotest.test_case "min max" `Quick test_min_max;
        Alcotest.test_case "median odd" `Quick test_median_odd;
        Alcotest.test_case "median even" `Quick test_median_even;
        Alcotest.test_case "quantile bounds" `Quick test_quantile_bounds;
        Alcotest.test_case "quantile interpolates" `Quick test_quantile_interpolates;
        Alcotest.test_case "quantile pure" `Quick test_quantile_does_not_mutate;
        Alcotest.test_case "quantile invalid" `Quick test_quantile_invalid;
        Alcotest.test_case "pearson perfect" `Quick test_pearson_perfect;
        Alcotest.test_case "pearson anti" `Quick test_pearson_anticorrelated;
        Alcotest.test_case "pearson constant" `Quick test_pearson_constant;
        Alcotest.test_case "r2 perfect" `Quick test_r2_perfect;
        Alcotest.test_case "r2 mean predictor" `Quick test_r2_mean_prediction;
        Alcotest.test_case "r2 constant actual" `Quick test_r2_constant_actual;
        Alcotest.test_case "mae" `Quick test_mae;
        Alcotest.test_case "rmse" `Quick test_rmse;
        Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
        Alcotest.test_case "geometric mean negative" `Quick test_geometric_mean_negative;
        Alcotest.test_case "normalize" `Quick test_normalize;
        Alcotest.test_case "normalize zero" `Quick test_normalize_zero;
        Alcotest.test_case "empty raises" `Quick test_empty_raises;
        prop_quantile_monotone;
        prop_median_is_middle_quantile;
        prop_normalize_sums_to_one;
      ] );
    ( "table",
      [
        Alcotest.test_case "basic" `Quick test_table_basic;
        Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        Alcotest.test_case "alignment" `Quick test_table_alignment;
        Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        Alcotest.test_case "float row" `Quick test_float_row;
        Alcotest.test_case "to_csv" `Quick test_to_csv;
        prop_csv_roundtrip_cells;
      ] );
    ( "plot",
      [
        Alcotest.test_case "empty" `Quick test_plot_empty;
        Alcotest.test_case "non-finite filtered" `Quick test_plot_nonfinite_filtered;
        Alcotest.test_case "contains glyphs" `Quick test_plot_contains_glyphs;
        Alcotest.test_case "dimensions" `Quick test_plot_dimensions;
        Alcotest.test_case "collision marker" `Quick test_plot_collision_marker;
        Alcotest.test_case "degenerate range" `Quick test_plot_degenerate_range;
        Alcotest.test_case "auto glyphs" `Quick test_auto_glyphs;
      ] );
  ]
