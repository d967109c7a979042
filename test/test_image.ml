(* Tests for Kfuse_image: Border, Image, Mask, Region, Convolve. *)

module Border = Kfuse_image.Border
module Image = Kfuse_image.Image
module Mask = Kfuse_image.Mask
module Region = Kfuse_image.Region
module Convolve = Kfuse_image.Convolve

(* ---- Border ---- *)

let resolve mode x y =
  match Border.resolve mode ~width:4 ~height:3 x y with
  | Border.Inside (a, b) -> `In (a, b)
  | Border.Const_value c -> `Const c
  | Border.Undef -> `Undef

let test_border_inside () =
  List.iter
    (fun mode ->
      Alcotest.(check bool)
        "inside unchanged" true
        (resolve mode 2 1 = `In (2, 1)))
    [ Border.Clamp; Border.Mirror; Border.Repeat; Border.Constant 9.0; Border.Undefined ]

let test_border_clamp () =
  Alcotest.(check bool) "left" true (resolve Border.Clamp (-3) 1 = `In (0, 1));
  Alcotest.(check bool) "right" true (resolve Border.Clamp 9 1 = `In (3, 1));
  Alcotest.(check bool) "corner" true (resolve Border.Clamp (-1) 7 = `In (0, 2))

let test_border_mirror () =
  (* width 4: ... 2 1 | 0 1 2 3 | 2 1 0 1 ... *)
  Alcotest.(check bool) "-1 -> 1" true (resolve Border.Mirror (-1) 0 = `In (1, 0));
  Alcotest.(check bool) "-2 -> 2" true (resolve Border.Mirror (-2) 0 = `In (2, 0));
  Alcotest.(check bool) "4 -> 2" true (resolve Border.Mirror 4 0 = `In (2, 0));
  Alcotest.(check bool) "5 -> 1" true (resolve Border.Mirror 5 0 = `In (1, 0));
  (* period 6: -6 -> 0 *)
  Alcotest.(check bool) "period" true (resolve Border.Mirror (-6) 0 = `In (0, 0))

let test_border_mirror_singleton () =
  Alcotest.(check (option int)) "n=1 always 0" (Some 0) (Border.resolve_axis Border.Mirror 1 (-5))

let test_border_repeat () =
  Alcotest.(check bool) "-1 wraps" true (resolve Border.Repeat (-1) 0 = `In (3, 0));
  Alcotest.(check bool) "4 wraps" true (resolve Border.Repeat 4 0 = `In (0, 0));
  Alcotest.(check bool) "-5 wraps" true (resolve Border.Repeat (-5) 0 = `In (3, 0))

let test_border_constant_undefined () =
  Alcotest.(check bool) "constant" true (resolve (Border.Constant 2.5) (-1) 0 = `Const 2.5);
  Alcotest.(check bool) "undefined" true (resolve Border.Undefined 99 0 = `Undef)

let test_border_empty_extent () =
  Alcotest.check_raises "empty" (Invalid_argument "Border.resolve: empty extent") (fun () ->
      ignore (Border.resolve Border.Clamp ~width:0 ~height:3 0 0))

(* ---- Image ---- *)

let test_image_create_get_set () =
  let img = Image.create ~width:3 ~height:2 () in
  Alcotest.check (Helpers.float_close ()) "zero" 0.0 (Image.get img 2 1);
  Image.set img 2 1 4.5;
  Alcotest.check (Helpers.float_close ()) "set" 4.5 (Image.get img 2 1)

let test_image_bounds () =
  let img = Image.create ~width:3 ~height:2 () in
  Alcotest.check_raises "get oob" (Invalid_argument "Image.get: out of bounds") (fun () ->
      ignore (Image.get img 3 0));
  Alcotest.check_raises "set oob" (Invalid_argument "Image.set: out of bounds") (fun () ->
      Image.set img 0 (-1) 0.0);
  Alcotest.check_raises "bad extent" (Invalid_argument "Image.create: nonpositive extent")
    (fun () -> ignore (Image.create ~width:0 ~height:2 ()))

let test_image_init_of_rows () =
  let a = Image.init ~width:2 ~height:2 (fun x y -> float_of_int ((10 * y) + x)) in
  let b = Image.of_rows [ [ 0.; 1. ]; [ 10.; 11. ] ] in
  Alcotest.check Helpers.image_exact "same" a b;
  Alcotest.check_raises "ragged" (Invalid_argument "Image.of_rows: ragged rows") (fun () ->
      ignore (Image.of_rows [ [ 1. ]; [ 1.; 2. ] ]))

let test_image_map_fold () =
  let img = Image.of_rows [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let doubled = Image.map (fun v -> v *. 2.0) img in
  Alcotest.check (Helpers.float_close ()) "map" 8.0 (Image.get doubled 1 1);
  Alcotest.check (Helpers.float_close ()) "fold sum" 10.0
    (Image.fold ( +. ) 0.0 img);
  let shifted = Image.mapi (fun x y v -> v +. float_of_int (x + y)) img in
  Alcotest.check (Helpers.float_close ()) "mapi" 6.0 (Image.get shifted 1 1)

let test_image_map2 () =
  let a = Image.of_rows [ [ 1.; 2. ] ] in
  let b = Image.of_rows [ [ 10.; 20. ] ] in
  let s = Image.map2 ( +. ) a b in
  Alcotest.check (Helpers.float_close ()) "sum" 22.0 (Image.get s 1 0);
  let c = Image.create ~width:3 ~height:1 () in
  Alcotest.check_raises "mismatch" (Invalid_argument "Image.map2: extent mismatch")
    (fun () -> ignore (Image.map2 ( +. ) a c))

let test_image_copy_independent () =
  let a = Image.of_rows [ [ 1.; 2. ] ] in
  let b = Image.copy a in
  Image.set b 0 0 9.0;
  Alcotest.check (Helpers.float_close ()) "original untouched" 1.0 (Image.get a 0 0)

let test_image_diff () =
  let a = Image.of_rows [ [ 1.; 2. ] ] in
  let b = Image.of_rows [ [ 1.5; 1.8 ] ] in
  Alcotest.check (Helpers.float_close ()) "max abs diff" 0.5 (Image.max_abs_diff a b);
  Alcotest.(check bool) "eps pass" true (Image.equal_eps ~eps:0.5 a b);
  Alcotest.(check bool) "eps fail" false (Image.equal_eps ~eps:0.4 a b)

(* Exactness is on bits: a NaN the other side lacks is an infinite
   difference in the report, and a zero of the other sign is unequal
   though its difference is 0. *)
let test_image_diff_nan_zero () =
  let img l = Image.of_rows [ l ] in
  let a = img [ 1.0; Float.nan; 0.0 ] in
  Alcotest.(check bool) "NaN equals its own bits" true (Image.equal a (Image.copy a));
  Alcotest.(check (float 0.0)) "bit-equal: no difference" 0.0 (Image.max_abs_diff a (Image.copy a));
  Alcotest.(check bool) "a lost NaN is infinite" true
    (Image.max_abs_diff a (img [ 1.0; 0.0; 0.0 ]) = Float.infinity);
  Alcotest.(check bool) "either side" true
    (Image.max_abs_diff (img [ 1.0; 0.0; 0.0 ]) a = Float.infinity);
  let z = img [ 1.0; Float.nan; -0.0 ] in
  Alcotest.(check bool) "-0 is not +0" false (Image.equal a z);
  Alcotest.(check (float 0.0)) "though 0 apart" 0.0 (Image.max_abs_diff a z)

let test_image_get_bordered () =
  let img = Image.of_rows [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  Alcotest.check (Helpers.float_close ()) "clamp" 1.0
    (Image.get_bordered img Border.Clamp (-5) (-5));
  Alcotest.check (Helpers.float_close ()) "constant" 7.0
    (Image.get_bordered img (Border.Constant 7.0) (-1) 0);
  Alcotest.check_raises "undefined oob"
    (Invalid_argument "Image.get_bordered: undefined border access") (fun () ->
      ignore (Image.get_bordered img Border.Undefined 5 0))

(* ---- Mask ---- *)

let test_mask_basics () =
  let m = Mask.of_rows [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ]; [ 7.; 8.; 9. ] ] in
  Alcotest.(check int) "size" 3 (Mask.size m);
  Alcotest.(check int) "radius" 1 (Mask.radius m);
  Alcotest.(check int) "area" 9 (Mask.area m);
  Alcotest.check (Helpers.float_close ()) "center" 5.0 (Mask.get m 0 0);
  Alcotest.check (Helpers.float_close ()) "top-left" 1.0 (Mask.get m (-1) (-1));
  Alcotest.check (Helpers.float_close ()) "bottom-right" 9.0 (Mask.get m 1 1);
  Alcotest.check (Helpers.float_close ()) "sum" 45.0 (Mask.sum m)

let test_mask_invalid () =
  Alcotest.check_raises "even" (Invalid_argument "Mask.of_rows: size must be odd") (fun () ->
      ignore (Mask.of_rows [ [ 1.; 2. ]; [ 3.; 4. ] ]));
  Alcotest.check_raises "not square" (Invalid_argument "Mask.of_rows: mask must be square")
    (fun () -> ignore (Mask.of_rows [ [ 1. ]; [ 2. ]; [ 3. ] ]));
  let m = Mask.mean 3 in
  Alcotest.check_raises "offset outside" (Invalid_argument "Mask.get: offset outside mask")
    (fun () -> ignore (Mask.get m 2 0))

let test_mask_builtins () =
  Alcotest.check (Helpers.float_close ()) "gauss3 normalized" 1.0 (Mask.sum Mask.gaussian_3x3);
  Alcotest.check (Helpers.float_close ()) "gauss3 raw sum" 16.0
    (Mask.sum Mask.gaussian_3x3_unnormalized);
  Alcotest.check (Helpers.float_close ~eps:1e-12 ()) "gauss5 normalized" 1.0
    (Mask.sum Mask.gaussian_5x5);
  Alcotest.check (Helpers.float_close ()) "sobel_x antisymmetric" 0.0 (Mask.sum Mask.sobel_x);
  Alcotest.check (Helpers.float_close ()) "mean sums to 1" 1.0 (Mask.sum (Mask.mean 5));
  Alcotest.(check int) "gauss5 radius" 2 (Mask.radius Mask.gaussian_5x5)

let test_mask_fold_order () =
  let m = Mask.of_rows [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ]; [ 7.; 8.; 9. ] ] in
  let collected = Mask.fold (fun acc _ _ c -> c :: acc) [] m in
  Alcotest.(check (list (float 0.0)))
    "row major" [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ] (List.rev collected)

(* ---- Region ---- *)

let test_region_classify () =
  let cls = Region.classify ~width:10 ~height:8 ~radius:2 in
  Alcotest.(check bool) "interior" true (Region.zone_equal (cls 5 4) Region.Interior);
  Alcotest.(check bool) "halo edge" true (Region.zone_equal (cls 1 4) Region.Halo);
  Alcotest.(check bool) "halo corner" true (Region.zone_equal (cls 9 7) Region.Halo);
  Alcotest.(check bool) "exterior" true (Region.zone_equal (cls (-1) 4) Region.Exterior);
  Alcotest.(check bool) "radius 0 all interior" true
    (Region.zone_equal (Region.classify ~width:10 ~height:8 ~radius:0 0 0) Region.Interior)

let test_region_counts () =
  (* 10x8 with radius 2: interior is 6x4 = 24, halo is 80 - 24 = 56. *)
  Alcotest.(check int) "interior" 24 (Region.interior_count ~width:10 ~height:8 ~radius:2);
  Alcotest.(check int) "halo" 56 (Region.halo_count ~width:10 ~height:8 ~radius:2);
  Alcotest.(check int) "radius too big" 0
    (Region.interior_count ~width:3 ~height:3 ~radius:2)

let test_region_interior_width () =
  (* Section IV-B: li - floor(lk/2)*2. *)
  Alcotest.(check int) "5 with 3x3" 3 (Region.interior_width ~image_width:5 ~mask_width:3);
  Alcotest.(check int) "5 with 5x5" 1 (Region.interior_width ~image_width:5 ~mask_width:5);
  Alcotest.(check int) "clamped at 0" 0 (Region.interior_width ~image_width:3 ~mask_width:7)

let test_region_fused_radius () =
  Alcotest.(check int) "3x3 + 5x5" 3 (Region.fused_radius [ 1; 2 ]);
  Alcotest.(check int) "empty" 0 (Region.fused_radius [])

(* ---- Convolve ---- *)

let test_convolve_identity () =
  let id = Mask.of_rows [ [ 0.; 0.; 0. ]; [ 0.; 1.; 0. ]; [ 0.; 0.; 0. ] ] in
  let img = Helpers.ramp ~width:6 ~height:5 in
  Alcotest.check Helpers.image_exact "identity mask"
    img
    (Convolve.apply ~border:Border.Clamp id img)

let test_convolve_mean_constant () =
  let img = Image.const ~width:5 ~height:5 3.0 in
  let out = Convolve.apply ~border:Border.Clamp (Mask.mean 3) img in
  Alcotest.check (Helpers.image_close ~eps:1e-12 ()) "constant preserved" img out

let test_convolve_matches_figure4 () =
  (* Cross-check against the intermediate matrix the paper prints in
     Figure 4a: row 2 of conv(img) is [57 82 98 93 90]. *)
  let img =
    Image.of_rows
      [
        [ 1.; 3.; 7.; 7.; 6. ]; [ 3.; 7.; 9.; 6.; 8. ]; [ 5.; 4.; 3.; 2.; 1. ];
        [ 4.; 1.; 2.; 1.; 2. ]; [ 5.; 2.; 2.; 4.; 2. ];
      ]
  in
  let out = Convolve.apply ~border:Border.Clamp Mask.gaussian_3x3_unnormalized img in
  List.iteri
    (fun x expected ->
      Alcotest.check (Helpers.float_close ()) (Printf.sprintf "row1[%d]" x) expected
        (Image.get out x 1))
    [ 57.; 82.; 98.; 93.; 90. ]

let test_convolve_interior_only () =
  let img = Helpers.ramp ~width:5 ~height:5 in
  let full = Convolve.apply ~border:Border.Clamp Mask.gaussian_3x3 img in
  let interior = Convolve.apply_interior Mask.gaussian_3x3 img in
  (* Interior pixels agree; halo pixels of the interior-only result are 0. *)
  Alcotest.check (Helpers.float_close ~eps:1e-12 ()) "interior agrees"
    (Image.get full 2 2) (Image.get interior 2 2);
  Alcotest.check (Helpers.float_close ()) "halo zeroed" 0.0 (Image.get interior 0 0)

let test_convolve_at_outside () =
  let img = Image.const ~width:3 ~height:3 2.0 in
  (* Window fully outside clamps to the corner; constant image -> same. *)
  Alcotest.check (Helpers.float_close ~eps:1e-12 ()) "outside clamp" 2.0
    (Convolve.at ~border:Border.Clamp Mask.gaussian_3x3 img (-5) (-5))

(* ---- Image.random ---- *)

module Rng = Kfuse_util.Rng

(* The per-draw reference for [Image.random]: [Rng.fill_float] keeps its
   own copy of the xoshiro step, trusted only because the property below
   holds. *)
let random_per_draw rng ~width ~height ~lo ~hi =
  Image.init ~width ~height (fun _ _ -> lo +. Rng.float rng (hi -. lo))

let prop_random_per_draw =
  let extent = QCheck.Gen.(frequency [ (1, return 1); (3, int_range 1 40) ]) in
  let bound = QCheck.Gen.float_range (-1e3) 1e3 in
  QCheck.Test.make ~count:300 ~name:"Image.random = per-draw Rng.float, then same state"
    (QCheck.make
       ~print:(fun (seed, w, h, lo, hi) -> Printf.sprintf "seed %d, %dx%d, [%h, %h)" seed w h lo hi)
       QCheck.Gen.(map (fun ((seed, w, h), (lo, hi)) -> (seed, w, h, lo, hi))
                     (pair (triple int extent extent) (pair bound bound))))
    (fun (seed, width, height, lo, hi) ->
      let a = Rng.create seed and b = Rng.create seed in
      let got = Image.random a ~width ~height ~lo ~hi in
      let want = random_per_draw b ~width ~height ~lo ~hi in
      (* bits64's output reads only s1: a few draws reach the whole state *)
      let next rng = List.init 8 (fun _ -> Rng.bits64 rng) in
      Image.equal got want && next a = next b)

(* Pinned from the per-draw definition, so neither side of the property
   can drift together with the other. *)
let test_random_golden () =
  let img = Image.random (Rng.create 20261016) ~width:64 ~height:48 ~lo:(-1.0) ~hi:3.0 in
  let checksum =
    Image.fold
      (fun acc v -> Int64.(add (mul acc 1_000_003L) (bits_of_float v)))
      0L img
  in
  Alcotest.(check string) "checksum" "da2451c8b3617ec1" (Printf.sprintf "%016Lx" checksum);
  let one = Image.random (Rng.create 7) ~width:1 ~height:1 ~lo:0.0 ~hi:1.0 in
  Alcotest.(check string) "1x1" "0x1.66b1f5ee9df2ep-1" (Printf.sprintf "%h" (Image.get one 0 0))

let suite =
  [
    Alcotest.test_case "Border inside" `Quick test_border_inside;
    Alcotest.test_case "Border clamp" `Quick test_border_clamp;
    Alcotest.test_case "Border mirror" `Quick test_border_mirror;
    Alcotest.test_case "Border mirror n=1" `Quick test_border_mirror_singleton;
    Alcotest.test_case "Border repeat" `Quick test_border_repeat;
    Alcotest.test_case "Border constant/undefined" `Quick test_border_constant_undefined;
    Alcotest.test_case "Border empty extent" `Quick test_border_empty_extent;
    Alcotest.test_case "Image create/get/set" `Quick test_image_create_get_set;
    Alcotest.test_case "Image bounds checks" `Quick test_image_bounds;
    Alcotest.test_case "Image init/of_rows" `Quick test_image_init_of_rows;
    Alcotest.test_case "Image map/fold/mapi" `Quick test_image_map_fold;
    Alcotest.test_case "Image map2" `Quick test_image_map2;
    Alcotest.test_case "Image copy" `Quick test_image_copy_independent;
    Alcotest.test_case "Image diff/eps" `Quick test_image_diff;
    Alcotest.test_case "Image diff sees NaN, equal sees -0" `Quick test_image_diff_nan_zero;
    Alcotest.test_case "Image bordered reads" `Quick test_image_get_bordered;
    Alcotest.test_case "Mask basics" `Quick test_mask_basics;
    Alcotest.test_case "Mask invalid" `Quick test_mask_invalid;
    Alcotest.test_case "Mask builtins" `Quick test_mask_builtins;
    Alcotest.test_case "Mask fold order" `Quick test_mask_fold_order;
    Alcotest.test_case "Region classify" `Quick test_region_classify;
    Alcotest.test_case "Region counts" `Quick test_region_counts;
    Alcotest.test_case "Region interior width" `Quick test_region_interior_width;
    Alcotest.test_case "Region fused radius" `Quick test_region_fused_radius;
    Alcotest.test_case "Convolve identity" `Quick test_convolve_identity;
    Alcotest.test_case "Convolve mean of constant" `Quick test_convolve_mean_constant;
    Alcotest.test_case "Convolve matches Figure 4a" `Quick test_convolve_matches_figure4;
    Alcotest.test_case "Convolve interior-only" `Quick test_convolve_interior_only;
    Alcotest.test_case "Convolve.at outside" `Quick test_convolve_at_outside;
    Alcotest.test_case "Image.random golden checksum" `Quick test_random_golden;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261016 |]) prop_random_per_draw;
  ]
