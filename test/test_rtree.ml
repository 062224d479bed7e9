(* Tests for the packed STR-tree spatial index, including qcheck
   equivalence with brute-force box scans. *)

module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec
module Strtree = Indq_rtree.Strtree

let vec = Vec.of_array

let flat_of_points d points =
  Vec.init
    (Array.length points * d)
    (fun j -> Vec.get points.(j / d) (j mod d))

let test_strtree_empty () =
  let t = Strtree.build ~dim:2 (Vec.make 0 0.) 0 in
  Alcotest.(check int) "size" 0 (Strtree.size t);
  Alcotest.(check int) "depth" 0 (Strtree.depth t);
  Alcotest.(check bool) "invariants" true (Strtree.check_invariants t);
  Alcotest.(check (list int)) "no rows" []
    (Strtree.collect_in_box t ~lo:(vec [| 0.; 0. |]) ~hi:(vec [| 1.; 1. |]))

let test_strtree_small_box_queries () =
  (* 3x3 integer grid: boxes with known answers. *)
  let points =
    Array.init 9 (fun i -> vec [| float_of_int (i mod 3); float_of_int (i / 3) |])
  in
  let t = Strtree.build ~leaf_cap:2 ~dim:2 (flat_of_points 2 points) 9 in
  Alcotest.(check bool) "invariants" true (Strtree.check_invariants t);
  Alcotest.(check int) "size" 9 (Strtree.size t);
  let rows ~lo ~hi = List.sort compare (Strtree.collect_in_box t ~lo ~hi) in
  Alcotest.(check (list int)) "all" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
    (rows ~lo:(vec [| 0.; 0. |]) ~hi:(vec [| 2.; 2. |]));
  Alcotest.(check (list int)) "corner" [ 0 ]
    (rows ~lo:(vec [| 0.; 0. |]) ~hi:(vec [| 0.5; 0.5 |]));
  Alcotest.(check (list int)) "column" [ 1; 4; 7 ]
    (rows ~lo:(vec [| 1.; 0. |]) ~hi:(vec [| 1.; 2. |]));
  Alcotest.(check bool) "exists hit" true
    (Strtree.exists_in_box t ~lo:(vec [| 2.; 2. |]) ~hi:(vec [| 3.; 3. |])
       ~f:(fun pos -> pos = 8));
  Alcotest.(check bool) "exists filter miss" false
    (Strtree.exists_in_box t ~lo:(vec [| 2.; 2. |]) ~hi:(vec [| 3.; 3. |])
       ~f:(fun pos -> pos = 0));
  Alcotest.(check int) "fold counts" 9
    (Strtree.fold_in_box t ~lo:(vec [| 0.; 0. |]) ~hi:(vec [| 2.; 2. |]) ~init:0
       ~f:(fun acc _ -> acc + 1))

(* Property: box queries over the packed tree match a brute-force scan of
   the flat buffer, across dimensions, leaf capacities and fanouts. *)
let prop_strtree_matches_bruteforce =
  QCheck2.Test.make ~count:60 ~name:"strtree box queries = brute force"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 4 in
      let n = Rng.int rng 500 in
      let points = Array.init n (fun _ -> Vec.init d (fun _ -> Rng.uniform rng)) in
      let leaf_cap = 2 + Rng.int rng 14 in
      let fanout = 2 + Rng.int rng 10 in
      let t = Strtree.build ~leaf_cap ~fanout ~dim:d (flat_of_points d points) n in
      let ok = ref (Strtree.check_invariants t && Strtree.size t = n) in
      for _ = 1 to 10 do
        let a = Vec.init d (fun _ -> Rng.uniform rng) in
        let b = Vec.init d (fun _ -> Rng.uniform rng) in
        let lo = Vec.init d (fun i -> Float.min (Vec.get a i) (Vec.get b i)) in
        let hi = Vec.init d (fun i -> Float.max (Vec.get a i) (Vec.get b i)) in
        let inside p =
          let all = ref true in
          for i = 0 to d - 1 do
            if Vec.get p i < Vec.get lo i || Vec.get p i > Vec.get hi i then
              all := false
          done;
          !all
        in
        let expected =
          List.init n Fun.id |> List.filter (fun r -> inside points.(r))
        in
        let got = List.sort compare (Strtree.collect_in_box t ~lo ~hi) in
        if expected <> got then ok := false
      done;
      !ok)

let () =
  Alcotest.run "rtree"
    [
      ( "strtree",
        [
          Alcotest.test_case "empty" `Quick test_strtree_empty;
          Alcotest.test_case "small box queries" `Quick
            test_strtree_small_box_queries;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_strtree_matches_bruteforce;
        ] );
    ]
