(* Tests for the flat-Bigarray vector/matrix kernels.

   The property suite checks the abstract [Vec]/[Mat] operations against a
   plain [float array] reference model coordinate by coordinate with
   [Float.equal] — the kernels document left-to-right traversal, so every
   reduction must compute the {i same} float expression as the historical
   array code, bit for bit, not merely within a tolerance. *)

module Vec = Indq_linalg.Vec
module Mat = Indq_linalg.Mat
module Rng = Indq_util.Rng

let vec = Vec.of_array

let vecf = Alcotest.(array (float 1e-9))

let check_vec msg expected v = Alcotest.check vecf msg expected (Vec.to_array v)

let test_basis () =
  check_vec "basis" [| 0.; 1.; 0. |] (Vec.basis 3 1);
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis: index out of range")
    (fun () -> ignore (Vec.basis 3 3))

let test_dot () =
  Alcotest.(check (float 1e-9)) "dot" 32.
    (Vec.dot (vec [| 1.; 2.; 3. |]) (vec [| 4.; 5.; 6. |]));
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec.dot: dimension mismatch")
    (fun () -> ignore (Vec.dot (vec [| 1. |]) (vec [| 1.; 2. |])))

let test_arith () =
  check_vec "add" [| 5.; 7. |] (Vec.add (vec [| 1.; 2. |]) (vec [| 4.; 5. |]));
  check_vec "sub" [| -3.; -3. |] (Vec.sub (vec [| 1.; 2. |]) (vec [| 4.; 5. |]));
  check_vec "scale" [| 2.; 4. |] (Vec.scale 2. (vec [| 1.; 2. |]));
  check_vec "axpy" [| 6.; 9. |] (Vec.axpy 2. (vec [| 1.; 2. |]) (vec [| 4.; 5. |]))

let test_norms () =
  Alcotest.(check (float 1e-9)) "norm2" 5. (Vec.norm2 (vec [| 3.; 4. |]));
  Alcotest.(check (float 1e-9)) "norm_inf" 4. (Vec.norm_inf (vec [| 3.; -4. |]));
  Alcotest.(check (float 1e-9)) "dist2" 5.
    (Vec.dist2 (vec [| 0.; 0. |]) (vec [| 3.; 4. |]));
  check_vec "normalize" [| 0.6; 0.8 |] (Vec.normalize (vec [| 3.; 4. |]));
  Alcotest.check_raises "normalize zero" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> ignore (Vec.normalize (vec [| 0.; 0. |])))

let test_extrema () =
  Alcotest.(check (float 1e-9)) "sum" 6. (Vec.sum (vec [| 1.; 2.; 3. |]));
  Alcotest.(check (float 1e-9)) "max" 3. (Vec.max_coord (vec [| 1.; 3.; 2. |]));
  Alcotest.(check (float 1e-9)) "min" 1. (Vec.min_coord (vec [| 1.; 3.; 2. |]));
  Alcotest.(check int) "argmax" 1 (Vec.argmax (vec [| 1.; 3.; 2. |]));
  Alcotest.(check int) "argmax first tie" 0 (Vec.argmax (vec [| 3.; 3.; 2. |]))

let test_approx_equal () =
  Alcotest.(check bool) "equal" true
    (Vec.approx_equal (vec [| 1.; 2. |]) (vec [| 1. +. 1e-12; 2. |]));
  Alcotest.(check bool) "different dims" false
    (Vec.approx_equal (vec [| 1. |]) (vec [| 1.; 2. |]));
  Alcotest.(check bool) "different values" false
    (Vec.approx_equal (vec [| 1.; 2. |]) (vec [| 1.; 2.1 |]))

let test_sub_view_aliasing () =
  let v = vec [| 0.; 1.; 2.; 3.; 4. |] in
  let w = Vec.sub_view v ~pos:1 ~len:3 in
  check_vec "view reads through" [| 1.; 2.; 3. |] w;
  Vec.set w 0 9.;
  Alcotest.(check (float 0.)) "view writes through" 9. (Vec.get v 1);
  Vec.scale_ip 2. w;
  check_vec "in-place kernel through view" [| 0.; 18.; 4.; 6.; 4. |] v

(* Allocation probe: at n = 1024 each hot kernel allocates at most the
   box of its float result (2 words), and nothing when it returns unit.
   A kernel compiled over a polymorphic Bigarray kind reads through the
   generic C accessor instead, which boxes every coordinate — thousands
   of words per call here. *)
let test_kernels_allocation_free () =
  let n = 1024 in
  let a = Vec.init n (fun i -> float_of_int i /. 7.) in
  let b = Vec.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let flat = Vec.init (2 * n) (fun i -> float_of_int (i mod 13)) in
  let y = Vec.copy b in
  let words f =
    f ();
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let check name ~at_most w =
    if w > at_most then
      Alcotest.failf "%s allocated %g minor words at n=%d (at most %g)" name
        w n at_most
  in
  check "dot" ~at_most:2.
    (words (fun () -> ignore (Sys.opaque_identity (Vec.dot a b))));
  check "dot_slice" ~at_most:2.
    (words (fun () ->
         ignore (Sys.opaque_identity (Vec.dot_slice flat ~pos:n a))));
  check "sum" ~at_most:2.
    (words (fun () -> ignore (Sys.opaque_identity (Vec.sum a))));
  check "axpy_ip" ~at_most:0. (words (fun () -> Vec.axpy_ip 1e-9 a y));
  check "scale_ip" ~at_most:0. (words (fun () -> Vec.scale_ip 1. y))

let test_mat_basic () =
  let m = Mat.of_rows [| vec [| 1.; 2. |]; vec [| 3.; 4. |] |] in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 2 (Mat.cols m);
  Alcotest.(check (float 1e-9)) "get" 3. (Mat.get m 1 0);
  check_vec "row" [| 3.; 4. |] (Mat.row m 1);
  check_vec "col" [| 2.; 4. |] (Mat.col m 1);
  check_vec "mul_vec" [| 5.; 11. |] (Mat.mul_vec m (vec [| 1.; 2. |]))

let test_mat_transpose () =
  let m = Mat.of_rows [| vec [| 1.; 2.; 3. |]; vec [| 4.; 5.; 6. |] |] in
  let mt = Mat.transpose m in
  Alcotest.(check int) "rows" 3 (Mat.rows mt);
  check_vec "row of transpose" [| 2.; 5. |] (Mat.row mt 1)

let test_mat_row_ops () =
  let m = Mat.of_rows [| vec [| 1.; 2. |]; vec [| 3.; 4. |] |] in
  Mat.swap_rows m 0 1;
  check_vec "swapped" [| 3.; 4. |] (Mat.row m 0);
  Mat.scale_row m 0 2.;
  check_vec "scaled" [| 6.; 8. |] (Mat.row m 0);
  Mat.add_scaled_row m ~src:0 ~dst:1 1.;
  check_vec "added" [| 7.; 10. |] (Mat.row m 1);
  (* src = dst aliasing: row += c * row must read pre-update values. *)
  Mat.add_scaled_row m ~src:0 ~dst:0 1.;
  check_vec "self-add doubles" [| 12.; 16. |] (Mat.row m 0)

let test_mat_row_view_aliasing () =
  let m = Mat.of_rows [| vec [| 1.; 2. |]; vec [| 3.; 4. |] |] in
  let r1 = Mat.row_view m 1 in
  Vec.axpy_ip 10. (Mat.row_view m 0) r1;
  check_vec "axpy through views" [| 13.; 24. |] (Mat.row m 1);
  Alcotest.(check (float 0.)) "row 0 untouched" 1. (Mat.get m 0 0)

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (Mat.of_rows [| vec [| 1. |]; vec [| 1.; 2. |] |]))

(* --- The float-array reference model ----------------------------------- *)

let random_array rng d = Array.init d (fun _ -> Rng.in_range rng (-10.) 10.)

let bit_equal_arrays a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.equal x y) a b

(* Left-to-right reductions, exactly as the kernels document. *)
let model_dot a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let model_sum a = Array.fold_left ( +. ) 0. a

let prop_vec_kernels_match_model =
  QCheck2.Test.make ~count:200 ~name:"Vec kernels = float-array model (bit-exact)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 8 in
      let a = random_array rng d and b = random_array rng d in
      let c = Rng.in_range rng (-3.) 3. in
      let va = vec a and vb = vec b in
      bit_equal_arrays (Vec.to_array (Vec.add va vb))
        (Array.mapi (fun i x -> x +. b.(i)) a)
      && bit_equal_arrays (Vec.to_array (Vec.sub va vb))
           (Array.mapi (fun i x -> x -. b.(i)) a)
      && bit_equal_arrays (Vec.to_array (Vec.scale c va))
           (Array.map (fun x -> c *. x) a)
      && bit_equal_arrays (Vec.to_array (Vec.axpy c va vb))
           (Array.mapi (fun i x -> (c *. x) +. b.(i)) a)
      && Float.equal (Vec.dot va vb) (model_dot a b)
      && Float.equal (Vec.sum va) (model_sum a)
      && Float.equal (Vec.norm_inf va)
           (Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a))

let prop_vec_inplace_matches_pure =
  QCheck2.Test.make ~count:200 ~name:"in-place kernels = allocating kernels"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 8 in
      let a = random_array rng d and b = random_array rng d in
      let c = Rng.in_range rng (-3.) 3. in
      let y1 = vec b in
      Vec.axpy_ip c (vec a) y1;
      let y2 = vec b in
      Vec.scale_ip c y2;
      let y3 = vec b in
      Vec.add_ip y3 (vec a);
      Vec.equal y1 (Vec.axpy c (vec a) (vec b))
      && Vec.equal y2 (Vec.scale c (vec b))
      && Vec.equal y3 (Vec.add (vec b) (vec a)))

let prop_vec_views_alias =
  QCheck2.Test.make ~count:100 ~name:"sub_view writes alias the parent"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 8 in
      let a = random_array rng d in
      let pos = Rng.int rng (d - 1) in
      let len = 1 + Rng.int rng (d - pos - 1) in
      let c = Rng.in_range rng (-3.) 3. in
      let v = vec a in
      Vec.scale_ip c (Vec.sub_view v ~pos ~len);
      let expected =
        Array.mapi (fun i x -> if i >= pos && i < pos + len then c *. x else x) a
      in
      bit_equal_arrays (Vec.to_array v) expected)

(* The slice kernels compute the same per-coordinate expressions as the
   whole-vector kernels over [sub_view]s, bit for bit. *)
let prop_slice_kernels_match_views =
  QCheck2.Test.make ~count:100 ~name:"slice kernels = view kernels (bit-exact)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let len = Rng.int rng 6 in
      let xpos = Rng.int rng 4 and ypos = 4 + Rng.int rng 4 in
      let model = random_array rng (ypos + len + Rng.int rng 3) in
      let c = Rng.in_range rng (-3.) 3. in
      let by_slice = vec model and by_view = vec model in
      Vec.axpy_slice c by_slice ~xpos by_slice ~ypos ~len;
      Vec.axpy_ip c
        (Vec.sub_view by_view ~pos:xpos ~len)
        (Vec.sub_view by_view ~pos:ypos ~len);
      Vec.scale_slice c by_slice ~pos:xpos ~len;
      Vec.scale_ip c (Vec.sub_view by_view ~pos:xpos ~len);
      let copied = Vec.make (len + 2) 0. in
      Vec.blit_slice ~src:by_slice ~src_pos:ypos ~dst:copied ~dst_pos:1 ~len;
      bit_equal_arrays (Vec.to_array by_slice) (Vec.to_array by_view)
      && bit_equal_arrays
           (Array.sub (Vec.to_array copied) 1 len)
           (Array.sub (Vec.to_array by_view) ypos len))

let prop_mat_row_ops_match_model =
  QCheck2.Test.make ~count:100 ~name:"Mat pivots = float-matrix model (bit-exact)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let r = 1 + Rng.int rng 5 and cdim = 1 + Rng.int rng 5 in
      let model = Array.init r (fun _ -> random_array rng cdim) in
      let m = Mat.of_rows (Array.map vec model) in
      let c = Rng.in_range rng (-3.) 3. in
      let src = Rng.int rng r and dst = Rng.int rng r in
      (* The pivot step: scale one row, fold it into another (possibly
         itself — the aliasing case the tableau relies on). *)
      Mat.scale_row m src c;
      Array.iteri (fun j x -> model.(src).(j) <- c *. x) (Array.copy model.(src));
      Mat.add_scaled_row m ~src ~dst c;
      let frozen = Array.copy model.(src) in
      Array.iteri
        (fun j x -> model.(dst).(j) <- (c *. frozen.(j)) +. x)
        (Array.copy model.(dst));
      let ok = ref true in
      for i = 0 to r - 1 do
        for j = 0 to cdim - 1 do
          if not (Float.equal (Mat.get m i j) model.(i).(j)) then ok := false
        done
      done;
      !ok)

let prop_dot_symmetric =
  QCheck2.Test.make ~count:100 ~name:"dot is symmetric"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 6 in
      let a = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      let b = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      Float.abs (Vec.dot a b -. Vec.dot b a) < 1e-9)

let prop_triangle_inequality =
  QCheck2.Test.make ~count:100 ~name:"triangle inequality"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 6 in
      let a = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      let b = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      Vec.norm2 (Vec.add a b) <= Vec.norm2 a +. Vec.norm2 b +. 1e-9)

let prop_transpose_involution =
  QCheck2.Test.make ~count:50 ~name:"transpose . transpose = id"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let r = 1 + Rng.int rng 4 and c = 1 + Rng.int rng 4 in
      let m =
        Mat.of_rows
          (Array.init r (fun _ -> Vec.init c (fun _ -> Rng.uniform rng)))
      in
      let mtt = Mat.transpose (Mat.transpose m) in
      let same = ref true in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          if Float.abs (Mat.get m i j -. Mat.get mtt i j) > 0. then same := false
        done
      done;
      !same)

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basis" `Quick test_basis;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "norms" `Quick test_norms;
          Alcotest.test_case "extrema" `Quick test_extrema;
          Alcotest.test_case "approx equal" `Quick test_approx_equal;
          Alcotest.test_case "sub_view aliasing" `Quick test_sub_view_aliasing;
          Alcotest.test_case "kernels allocation-free" `Quick
            test_kernels_allocation_free;
        ] );
      ( "mat",
        [
          Alcotest.test_case "basic" `Quick test_mat_basic;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "row ops" `Quick test_mat_row_ops;
          Alcotest.test_case "row_view aliasing" `Quick test_mat_row_view_aliasing;
          Alcotest.test_case "ragged" `Quick test_mat_ragged;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_vec_kernels_match_model;
          QCheck_alcotest.to_alcotest prop_vec_inplace_matches_pure;
          QCheck_alcotest.to_alcotest prop_slice_kernels_match_views;
          QCheck_alcotest.to_alcotest prop_vec_views_alias;
          QCheck_alcotest.to_alcotest prop_mat_row_ops_match_model;
          QCheck_alcotest.to_alcotest prop_dot_symmetric;
          QCheck_alcotest.to_alcotest prop_triangle_inequality;
          QCheck_alcotest.to_alcotest prop_transpose_involution;
        ] );
    ]
