module Fixed = Puma_util.Fixed
module Rng = Puma_util.Rng
module Tensor = Puma_util.Tensor
module Stats = Puma_util.Stats
module Bits = Puma_util.Bits
module Table = Puma_util.Table
module Json = Puma_util.Json
module Heap = Puma_util.Heap

let check_float = Alcotest.(check (float 1e-9))

(* ---- Fixed ---- *)

let test_fixed_roundtrip () =
  List.iter
    (fun f ->
      let q = Fixed.to_float (Fixed.of_float f) in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %f" f)
        true
        (Float.abs (q -. f) <= 0.5 /. Fixed.scale))
    [ 0.0; 1.0; -1.0; 0.5; -0.5; 3.999; -3.999; 0.000244; 7.5; -7.99 ]

let test_fixed_saturation () =
  Alcotest.(check int) "pos sat" Fixed.max_raw (Fixed.to_raw (Fixed.of_float 100.0));
  Alcotest.(check int) "neg sat" Fixed.min_raw (Fixed.to_raw (Fixed.of_float (-100.0)));
  let big = Fixed.of_float 7.9 in
  Alcotest.(check int) "add sat" Fixed.max_raw (Fixed.to_raw (Fixed.add big big));
  Alcotest.(check int) "nan is zero" 0 (Fixed.to_raw (Fixed.of_float Float.nan))

let test_fixed_arithmetic () =
  let a = Fixed.of_float 1.5 and b = Fixed.of_float 2.25 in
  check_float "add" 3.75 (Fixed.to_float (Fixed.add a b));
  check_float "sub" (-0.75) (Fixed.to_float (Fixed.sub a b));
  check_float "mul" 3.375 (Fixed.to_float (Fixed.mul a b));
  Alcotest.(check bool)
    "div" true
    (Float.abs (Fixed.to_float (Fixed.div a b) -. (1.5 /. 2.25)) < 2.0 /. Fixed.scale);
  check_float "neg" (-1.5) (Fixed.to_float (Fixed.neg a));
  check_float "abs" 1.5 (Fixed.to_float (Fixed.abs (Fixed.neg a)))

let test_fixed_div_by_zero () =
  let a = Fixed.of_float 1.0 in
  Alcotest.(check int) "pos/0" Fixed.max_raw (Fixed.to_raw (Fixed.div a Fixed.zero));
  Alcotest.(check int) "neg/0" Fixed.min_raw
    (Fixed.to_raw (Fixed.div (Fixed.neg a) Fixed.zero))

let test_fixed_shifts_logic () =
  let a = Fixed.of_float 1.0 in
  check_float "shl" 2.0 (Fixed.to_float (Fixed.shift_left a 1));
  check_float "shr" 0.5 (Fixed.to_float (Fixed.shift_right a 1));
  let x = Fixed.of_raw 0b1010 and y = Fixed.of_raw 0b0110 in
  Alcotest.(check int) "and" 0b0010 (Fixed.to_raw (Fixed.logand x y));
  Alcotest.(check int) "or" 0b1110 (Fixed.to_raw (Fixed.logor x y));
  Alcotest.(check int) "not involutive" (Fixed.to_raw x)
    (Fixed.to_raw (Fixed.lognot (Fixed.lognot x)))

let test_fixed_mul_acc () =
  let xs = Array.map Fixed.of_float [| 0.5; -1.0; 2.0 |] in
  let ys = Array.map Fixed.of_float [| 2.0; 0.25; 1.5 |] in
  let acc = Fixed.mul_acc xs ys in
  check_float "acc rescale" 3.75 (Fixed.to_float (Fixed.of_acc acc))

(* The crossbar image and the scalar quantizer share one rounding: round
   half away from zero, saturating, NaN to zero. [oracle] restates it
   with [Float.round]; every edge value must agree three ways. *)
let test_fixed_image_edges () =
  let oracle f =
    if Float.is_nan f then 0
    else
      let s = f *. Fixed.scale in
      if s >= Float.of_int Fixed.max_raw then Fixed.max_raw
      else if s <= Float.of_int Fixed.min_raw then Fixed.min_raw
      else Float.to_int (Float.round s)
  in
  let ties =
    List.concat_map
      (fun k ->
        let t = (Float.of_int k +. 0.5) /. Fixed.scale in
        List.concat_map
          (fun t -> [ t; Float.pred t; Float.succ t ])
          [ t; -.t ])
      [ 0; 1; 2; 7; 100; 4095; 4096; 12345; 32765; 32766; 32767 ]
  in
  let ends =
    [ 8.0; -8.0; Float.pred 8.0; Float.succ (-8.0);
      Float.of_int Fixed.max_raw /. Fixed.scale;
      Float.of_int Fixed.min_raw /. Fixed.scale;
      Float.infinity; Float.neg_infinity; Float.nan; -0.0; 0.0; 1e-300;
      -1e-300 ]
  in
  let values = Array.of_list (ties @ ends) in
  let img =
    Fixed.image_of_mat
      { Tensor.rows = 1; cols = Array.length values; data = values }
  in
  Array.iteri
    (fun k f ->
      let name = Printf.sprintf "%h" f in
      let raw = Fixed.to_raw (Fixed.of_float f) in
      Alcotest.(check int) (name ^ " of_float") (oracle f) raw;
      Alcotest.(check int) (name ^ " image") raw (Fixed.image_raw img k))
    values

let prop_fixed_add_commutes =
  QCheck.Test.make ~name:"fixed add commutes" ~count:500
    (QCheck.pair (QCheck.float_range (-8.0) 8.0) (QCheck.float_range (-8.0) 8.0))
    (fun (a, b) ->
      let fa = Fixed.of_float a and fb = Fixed.of_float b in
      Fixed.equal (Fixed.add fa fb) (Fixed.add fb fa))

let prop_fixed_of_acc_matches_mul =
  QCheck.Test.make ~name:"of_acc of single product = mul" ~count:500
    (QCheck.pair (QCheck.float_range (-2.0) 2.0) (QCheck.float_range (-2.0) 2.0))
    (fun (a, b) ->
      let fa = Fixed.of_float a and fb = Fixed.of_float b in
      let acc = Fixed.to_raw fa * Fixed.to_raw fb in
      Fixed.equal (Fixed.of_acc acc) (Fixed.mul fa fb))

let prop_fixed_roundtrip_raw =
  QCheck.Test.make ~name:"raw roundtrip" ~count:500
    (QCheck.int_range Fixed.min_raw Fixed.max_raw)
    (fun r -> Fixed.to_raw (Fixed.of_raw r) = r)

(* Representable range of the Q format, endpoints included. *)
let representable =
  QCheck.float_range
    (Float.of_int Fixed.min_raw /. Fixed.scale)
    (Float.of_int Fixed.max_raw /. Fixed.scale)

let prop_fixed_float_roundtrip_1ulp =
  QCheck.Test.make ~name:"float conversion roundtrip within 1 ulp" ~count:1000
    representable
    (fun f ->
      Float.abs (Fixed.to_float (Fixed.of_float f) -. f) <= 1.0 /. Fixed.scale)

let prop_fixed_mul_commutes =
  QCheck.Test.make ~name:"fixed mul commutes" ~count:500
    (QCheck.pair (QCheck.float_range (-8.0) 8.0) (QCheck.float_range (-8.0) 8.0))
    (fun (a, b) ->
      let fa = Fixed.of_float a and fb = Fixed.of_float b in
      Fixed.equal (Fixed.mul fa fb) (Fixed.mul fb fa))

let prop_fixed_saturates_in_range =
  QCheck.Test.make ~name:"every operation stays in the raw range" ~count:500
    (QCheck.pair (QCheck.float_range (-100.0) 100.0)
       (QCheck.float_range (-100.0) 100.0))
    (fun (a, b) ->
      let fa = Fixed.of_float a and fb = Fixed.of_float b in
      List.for_all
        (fun v ->
          let r = Fixed.to_raw v in
          r >= Fixed.min_raw && r <= Fixed.max_raw)
        [
          Fixed.add fa fb; Fixed.sub fa fb; Fixed.mul fa fb; Fixed.div fa fb;
          Fixed.neg fa; Fixed.abs fa; Fixed.shift_left fa 3;
        ])

let prop_fixed_add_neg_is_sub =
  QCheck.Test.make ~name:"a + (-b) = a - b away from saturation" ~count:500
    (QCheck.pair (QCheck.float_range (-3.0) 3.0) (QCheck.float_range (-3.0) 3.0))
    (fun (a, b) ->
      let fa = Fixed.of_float a and fb = Fixed.of_float b in
      Fixed.equal (Fixed.add fa (Fixed.neg fb)) (Fixed.sub fa fb))

(* Rescaling rounds half away from zero on both signs. *)
let test_fixed_rescale_negative () =
  List.iter
    (fun (p, want) ->
      Alcotest.(check int) (Printf.sprintf "of_acc %d" p) want
        (Fixed.to_raw (Fixed.of_acc p));
      Alcotest.(check int) (Printf.sprintf "round_scale %d" p) want
        (Fixed.round_scale p))
    [ (-1, 0); (-2048, -1); (-2049, -1); (-4096, -1); (-6144, -2); (-8191, -2) ]

let prop_fixed_rescale_odd =
  let bound = Fixed.max_raw lsl Fixed.frac_bits in
  QCheck.Test.make ~name:"rescale (-p) = -(rescale p) unsaturated" ~count:1000
    (QCheck.int_range (-bound) bound)
    (fun p ->
      Fixed.to_raw (Fixed.of_acc (-p)) = -Fixed.to_raw (Fixed.of_acc p))

(* Each vector kernel equals its scalar loop, element by element and in
   ascending order, on raws beyond the 16-bit range and on operand
   ranges that overlap (one buffer holds every operand when [alias]). *)
let prop_fixed_vec_kernels =
  let raw =
    QCheck.Gen.(
      oneof
        [
          int_range Fixed.min_raw Fixed.max_raw;
          int_range (-100_000) 100_000;
          oneofl [ -32769; -32768; 32767; 32768; 0 ];
          int_range (-(1 lsl 31)) (1 lsl 31);
        ])
  in
  let gen =
    QCheck.Gen.(
      tup4 (array_size (return 24) raw) (tup4 (0 -- 8) (0 -- 8) (0 -- 8) (0 -- 16))
        raw bool)
  in
  QCheck.Test.make ~name:"vector kernels = scalar loops" ~count:500
    (QCheck.make gen) (fun (init, (oa, ob, od, w), imm, alias) ->
      let scalar f (a : int array) oa (b : int array) ob d od w =
        for k = 0 to w - 1 do
          d.(od + k) <- f a.(oa + k) b.(ob + k)
        done
      in
      let run kernel =
        let a = Array.copy init in
        let b = if alias then a else Array.copy init in
        let d = if alias then a else Array.make 24 7 in
        kernel a b d;
        (a, b, d)
      in
      let fx f x y = Fixed.to_raw (f (Fixed.of_raw x) (Fixed.of_raw y)) in
      let cases =
        [
          (Fixed.Vec.add, fx Fixed.add); (Fixed.Vec.sub, fx Fixed.sub);
          (Fixed.Vec.mul, fx Fixed.mul); (Fixed.Vec.min, fx Fixed.min);
          (Fixed.Vec.max, fx Fixed.max);
          ((fun a oa _ _ d od w -> Fixed.Vec.relu a oa d od w),
           fun x _ -> fx Fixed.max 0 x);
          ((fun a oa _ _ d od w -> Fixed.Vec.add_imm imm a oa d od w),
           fun x _ -> fx Fixed.add x imm);
          ((fun a oa _ _ d od w -> Fixed.Vec.mul_imm imm a oa d od w),
           fun x _ -> fx Fixed.mul x imm);
          ((fun a oa _ _ d od w -> Fixed.Vec.of_acc a oa d od w),
           fun x _ -> Fixed.to_raw (Fixed.of_acc x));
        ]
      in
      List.for_all
        (fun (kernel, f) ->
          run (fun a b d -> kernel a oa b ob d od w)
          = run (fun a b d -> scalar f a oa b ob d od w))
        cases)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "int bound" true (v >= 0 && v < 7);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float bound" true (f >= 0.0 && f < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "mean ~0" true (Float.abs (Stats.mean xs) < 0.05);
  Alcotest.(check bool) "std ~1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.05)

let test_rng_split_independent () =
  let parent = Rng.create 3 in
  let child = Rng.split parent in
  let a = Rng.int parent 1_000_000 and b = Rng.int child 1_000_000 in
  Alcotest.(check bool) "streams differ" true (a <> b)

(* Properties of the indexed child streams ({!Rng.stream}): the same
   (parent state, index) must always yield the same stream, deriving a
   child must not disturb the parent (the fault-injection paths rely on
   this for order-independent realization), and distinct indices must
   yield distinct streams. *)

let draws rng n = List.init n (fun _ -> Rng.int rng 1_073_741_824)

let prop_rng_stream_deterministic =
  QCheck.Test.make ~name:"rng stream deterministic" ~count:200
    (QCheck.pair QCheck.small_nat (QCheck.int_bound 10_000))
    (fun (seed, k) ->
      let c1 = Rng.stream (Rng.create seed) k in
      let c2 = Rng.stream (Rng.create seed) k in
      draws c1 16 = draws c2 16)

let prop_rng_stream_non_mutating =
  QCheck.Test.make ~name:"rng stream leaves parent untouched" ~count:200
    (QCheck.pair QCheck.small_nat (QCheck.int_bound 10_000))
    (fun (seed, k) ->
      let touched = Rng.create seed and fresh = Rng.create seed in
      ignore (Rng.stream touched k);
      draws touched 16 = draws fresh 16)

let prop_rng_stream_order_independent =
  QCheck.Test.make ~name:"rng stream order independent" ~count:200
    (QCheck.triple QCheck.small_nat (QCheck.int_bound 10_000)
       (QCheck.int_bound 10_000))
    (fun (seed, k1, k2) ->
      let p = Rng.create seed in
      let a1 = draws (Rng.stream p k1) 8 in
      let a2 = draws (Rng.stream p k2) 8 in
      let q = Rng.create seed in
      let b2 = draws (Rng.stream q k2) 8 in
      let b1 = draws (Rng.stream q k1) 8 in
      a1 = b1 && a2 = b2)

let prop_rng_stream_independent =
  QCheck.Test.make ~name:"rng distinct stream indices differ" ~count:200
    (QCheck.triple QCheck.small_nat (QCheck.int_bound 10_000)
       (QCheck.int_bound 10_000))
    (fun (seed, k1, k2) ->
      QCheck.assume (k1 <> k2);
      let p = Rng.create seed in
      draws (Rng.stream p k1) 8 <> draws (Rng.stream p k2) 8
      && draws (Rng.stream p k1) 8 <> draws (Rng.create seed) 8)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 7 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

(* ---- Tensor ---- *)

let test_tensor_mvm () =
  let m = Tensor.mat_init 2 3 (fun i j -> Float.of_int ((i * 3) + j)) in
  let y = Tensor.mvm m [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "mvm" [| 8.0; 26.0 |] y

let test_tensor_transpose () =
  let rng = Rng.create 2 in
  let m = Tensor.mat_rand rng 4 7 1.0 in
  let tt = Tensor.mat_transpose (Tensor.mat_transpose m) in
  Alcotest.(check (array (float 1e-12))) "double transpose" m.Tensor.data tt.Tensor.data

let test_tensor_ops () =
  let a = [| 1.0; 2.0 |] and b = [| 3.0; 5.0 |] in
  Alcotest.(check (array (float 1e-9))) "add" [| 4.0; 7.0 |] (Tensor.vec_add a b);
  Alcotest.(check (array (float 1e-9))) "mul" [| 3.0; 10.0 |] (Tensor.vec_mul a b);
  Alcotest.(check (float 1e-9)) "dot" 13.0 (Tensor.dot a b);
  Alcotest.(check (float 1e-9)) "max diff" 3.0 (Tensor.vec_max_abs_diff a b)

(* ---- Stats ---- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  check_float "p50" 2.5 (Stats.percentile xs 50.0);
  check_float "rmse 0" 0.0 (Stats.rmse xs xs);
  Alcotest.(check int) "argmax" 3 (Stats.argmax xs)

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_percentile_edges () =
  let xs = [| 5.0; 1.0; 3.0 |] in
  check_float "p0 is min" 1.0 (Stats.percentile xs 0.0);
  check_float "p100 is max" 5.0 (Stats.percentile xs 100.0);
  check_float "single element" 7.0 (Stats.percentile [| 7.0 |] 50.0)

(* The float-specialized sort must give every percentile exactly as the
   polymorphic [Array.sort compare] definition did, on samples with
   duplicates, negative values, infinities and NaN. *)
let prop_percentile_matches_polymorphic_sort =
  let old_percentile xs p =
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let n = Array.length sorted in
    assert (n > 0);
    let rank = p /. 100.0 *. Float.of_int (n - 1) in
    let lo = Float.to_int (Float.of_int (Float.to_int rank) |> Float.min (Float.of_int (n - 1))) in
    let lo = if lo < 0 then 0 else lo in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. Float.of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  in
  let value =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl [ 0.0; -0.0; 1.0; -1.0; 2.5; -7.0; 1e300 ]);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
          (3, float_range (-1e6) 1e6);
        ])
  in
  let sample =
    QCheck.make
      ~print:QCheck.Print.(pair (array float) float)
      QCheck.Gen.(
        pair (array_size (int_range 1 40) value) (float_range 0.0 100.0))
  in
  QCheck.Test.make ~name:"percentile = polymorphic-sort definition"
    ~count:1000 sample (fun (xs, p) ->
      let before = Array.copy xs in
      let got = Stats.percentile xs p in
      let sorted = Array.copy xs in
      Stats.sort_floats sorted;
      Float.equal got (old_percentile xs p)
      && Float.equal got (Stats.percentile_sorted sorted p)
      && Array.for_all2 (fun a b -> Float.equal a b) before xs)

let test_stats_relative_error () =
  check_float "10%" 0.1 (Stats.relative_error ~reference:10.0 ~measured:11.0);
  check_float "sign-insensitive" 0.1
    (Stats.relative_error ~reference:10.0 ~measured:9.0)

(* ---- Bits ---- *)

let test_bits_slice_roundtrip () =
  for v = 0 to 255 do
    let slices = Bits.slice ~value:v ~bits_per_slice:2 ~num_slices:4 in
    Alcotest.(check int) "unslice" v (Bits.unslice ~slices ~bits_per_slice:2)
  done

let test_bits_signed () =
  Alcotest.(check int) "to_unsigned -1" 0xFFFF (Bits.to_unsigned ~width:16 (-1));
  Alcotest.(check int) "of_unsigned" (-1) (Bits.of_unsigned ~width:16 0xFFFF);
  Alcotest.(check int) "roundtrip -12345" (-12345)
    (Bits.of_unsigned ~width:16 (Bits.to_unsigned ~width:16 (-12345)))

let test_bits_required () =
  Alcotest.(check int) "128" 7 (Bits.bits_required 128);
  Alcotest.(check int) "1" 0 (Bits.bits_required 1);
  Alcotest.(check int) "129" 8 (Bits.bits_required 129)

let test_popcount () =
  Alcotest.(check int) "0" 0 (Bits.popcount 0);
  Alcotest.(check int) "0xFF" 8 (Bits.popcount 0xFF);
  Alcotest.(check int) "0b1010" 2 (Bits.popcount 0b1010)

(* ---- Table ---- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "longer" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (contains s "longer" && contains s "bb")

(* The record form of a table: the host-clock column is printed but not
   serialized, rows keep their order and the separator is dropped. *)
let test_table_json_drops_host_columns () =
  let t = Table.create ~title:"T" ~headers:[ "model"; "cycles"; "inf/s" ] in
  Table.set_host_columns t [ "inf/s" ];
  Table.add_row t [ "mlp"; "3860"; "36919.0" ];
  Table.add_sep t;
  Table.add_row t [ "rnn"; Table.fmt_pct 0.5 ];
  Alcotest.(check string) "record without the host column"
    "{\"title\":\"T\",\"headers\":[\"model\",\"cycles\"],\"rows\":[\n\
     [\"mlp\",\"3860\"],\n\
     [\"rnn\",\"50.0%\"]]}\n"
    (Json.to_string_lines (Table.to_json t));
  Alcotest.(check bool) "host column still printed" true
    (contains (Table.render t) "36919.0");
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Table.set_host_columns: no column x") (fun () ->
      Table.set_host_columns t [ "x" ])

(* ---- Json ---- *)

let test_json_print () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.Float 3.0);
        ("c", Json.String "x\"y\n\t\\");
        ("d", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
        ("e", Json.Obj []);
      ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"a\":3,\"b\":3.0,\"c\":\"x\\\"y\\n\\t\\\\\",\"d\":[true,null,1.5],\"e\":{}}"
    (Json.to_string doc);
  (* JSON has no NaN/inf. *)
  Alcotest.(check string) "non-finite floats are null" "[null,null,null]"
    (Json.to_string
       (Json.List
          [ Json.Float Float.nan; Json.Float Float.infinity;
            Json.Float Float.neg_infinity ]))

let test_json_roundtrip () =
  let docs =
    [
      Json.Null;
      Json.Int (-42);
      Json.Float 0.1;
      Json.Float 1e-17;
      Json.String "unicode \\u0041 stays escaped source";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [ ("k", Json.Null) ] ];
    ]
  in
  List.iter
    (fun doc ->
      match Json.parse (Json.to_string doc) with
      | Ok parsed ->
          Alcotest.(check string) "roundtrip" (Json.to_string doc)
            (Json.to_string parsed)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    docs

let test_json_parse () =
  (match Json.parse " { \"a\" : [ 1 , 2.5 , \"\\u0041\" ] } " with
  | Ok doc ->
      let l =
        Option.bind (Json.member "a" doc) Json.to_list |> Option.get
      in
      Alcotest.(check (option int)) "int" (Some 1) (Json.to_int (List.nth l 0));
      Alcotest.(check (option (float 0.0))) "float" (Some 2.5)
        (Json.to_float (List.nth l 1));
      Alcotest.(check (option string)) "unicode escape" (Some "A")
        (Json.to_str (List.nth l 2))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" bad
      | Error e ->
          Alcotest.(check bool) "error has offset" true (contains e "offset"))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul"; "\"unterminated" ];
  (* Errors name the 1-based line of the failure. *)
  match Json.parse "{\n  \"a\": 1,\n  oops\n}" with
  | Ok _ -> Alcotest.fail "accepted invalid multi-line JSON"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names line 3" e)
        true (contains e "line 3")

(* The heap's tie order is a contract: [Schedule] (byte-identical
   programs) and [Network] (bit-identical runs) pop entries with equal
   keys in it. The oracle is the swapping heap of (key, value) tuples the
   two-array heap replaced; on random push/pop sequences over a few keys
   (so most keys tie) both must pop the same values in the same order. *)
module Tuple_heap = struct
  type 'a t = { mutable arr : (int * 'a) array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let push h key v =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (max 16 (2 * h.len)) (key, v) in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.arr.(h.len) <- (key, v);
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && fst h.arr.((!i - 1) / 2) > fst h.arr.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && fst h.arr.(l) < fst h.arr.(!smallest) then smallest := l;
        if r < h.len && fst h.arr.(r) < fst h.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

let prop_heap_tie_order =
  (* [Some k] pushes key [k], [None] pops. *)
  let ops =
    QCheck.make
      ~print:QCheck.Print.(list (option int))
      QCheck.Gen.(
        list_size (int_range 0 300)
          (frequency [ (3, map Option.some (int_range 0 4)); (2, pure None) ]))
  in
  QCheck.Test.make ~name:"heap pops ties in the tuple heap's order" ~count:500
    ops (fun ops ->
      let h = Heap.create () and oracle = Tuple_heap.create () in
      let same = ref true in
      List.iteri
        (fun seq op ->
          (match op with
          | Some key ->
              Heap.push h key seq;
              Tuple_heap.push oracle key seq
          | None -> (
              let before = Heap.min_key h in
              match Tuple_heap.pop oracle with
              | None -> same := !same && Heap.size h = 0
              | Some (key, v) ->
                  same := !same && before = key && Heap.pop_value h = v));
          same := !same && Heap.size h = oracle.len)
        ops;
      !same)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [
        prop_fixed_add_commutes; prop_fixed_of_acc_matches_mul;
        prop_fixed_roundtrip_raw; prop_fixed_float_roundtrip_1ulp;
        prop_fixed_mul_commutes; prop_fixed_saturates_in_range;
        prop_fixed_add_neg_is_sub; prop_fixed_rescale_odd;
        prop_fixed_vec_kernels;
      ]
  in
  let qc_rng =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_rng_stream_deterministic; prop_rng_stream_non_mutating;
        prop_rng_stream_order_independent; prop_rng_stream_independent;
      ]
  in
  Alcotest.run "util"
    [
      ( "fixed",
        [
          Alcotest.test_case "roundtrip" `Quick test_fixed_roundtrip;
          Alcotest.test_case "saturation" `Quick test_fixed_saturation;
          Alcotest.test_case "arithmetic" `Quick test_fixed_arithmetic;
          Alcotest.test_case "div by zero" `Quick test_fixed_div_by_zero;
          Alcotest.test_case "shifts and logic" `Quick test_fixed_shifts_logic;
          Alcotest.test_case "mul_acc" `Quick test_fixed_mul_acc;
        ]
        @ qc
        @ [
            Alcotest.test_case "image edges" `Quick test_fixed_image_edges;
            Alcotest.test_case "negative rescale" `Quick
              test_fixed_rescale_negative;
          ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        ]
        @ qc_rng );
      ( "tensor",
        [
          Alcotest.test_case "mvm" `Quick test_tensor_mvm;
          Alcotest.test_case "transpose" `Quick test_tensor_transpose;
          Alcotest.test_case "vector ops" `Quick test_tensor_ops;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
          Alcotest.test_case "relative error" `Quick test_stats_relative_error;
          QCheck_alcotest.to_alcotest prop_percentile_matches_polymorphic_sort;
        ] );
      ( "bits",
        [
          Alcotest.test_case "slice roundtrip" `Quick test_bits_slice_roundtrip;
          Alcotest.test_case "signed" `Quick test_bits_signed;
          Alcotest.test_case "bits required" `Quick test_bits_required;
          Alcotest.test_case "popcount" `Quick test_popcount;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "record drops host columns" `Quick
            test_table_json_drops_host_columns;
        ] );
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
        ] );
      ("heap", [ QCheck_alcotest.to_alcotest prop_heap_tie_order ]);
    ]
