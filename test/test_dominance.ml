(* Tests for dominance predicates and skyline operators, including the
   BNL-vs-SFS equivalence property. *)

module Dominance = Indq_dominance.Dominance
module Skyline = Indq_dominance.Skyline
module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple
module Generator = Indq_dataset.Generator
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

let vec = Vec.of_array

let test_dominates () =
  Alcotest.(check bool) "strict" true (Dominance.dominates (vec [| 1.; 1. |]) (vec [| 0.5; 0.5 |]));
  Alcotest.(check bool) "partial tie" true (Dominance.dominates (vec [| 1.; 0.5 |]) (vec [| 0.5; 0.5 |]));
  Alcotest.(check bool) "equal" false (Dominance.dominates (vec [| 0.5; 0.5 |]) (vec [| 0.5; 0.5 |]));
  Alcotest.(check bool) "incomparable" false (Dominance.dominates (vec [| 1.; 0. |]) (vec [| 0.; 1. |]));
  Alcotest.(check bool) "reverse" false (Dominance.dominates (vec [| 0.5; 0.5 |]) (vec [| 1.; 1. |]))

let test_c_dominates () =
  (* a = (1, 1), b = (0.9, 0.9): a dominates 1.05*b = (0.945, 0.945). *)
  Alcotest.(check bool) "c-dominated" true
    (Dominance.c_dominates ~c:1.05 (vec [| 1.; 1. |]) (vec [| 0.9; 0.9 |]));
  (* b = (0.97, 0.97): 1.05*b = (1.0185, ...) escapes. *)
  Alcotest.(check bool) "escapes" false
    (Dominance.c_dominates ~c:1.05 (vec [| 1.; 1. |]) (vec [| 0.97; 0.97 |]));
  Alcotest.check_raises "c < 1" (Invalid_argument "Dominance.c_dominates: c must be >= 1")
    (fun () -> ignore (Dominance.c_dominates ~c:0.9 (vec [| 1. |]) (vec [| 1. |])))

let test_c_dominates_zero_tuple () =
  Alcotest.(check bool) "anything beats zero" true
    (Dominance.c_dominates ~c:1.05 (vec [| 0.1; 0. |]) (vec [| 0.; 0. |]))

let test_incomparable () =
  Alcotest.(check bool) "incomparable" true
    (Dominance.incomparable (vec [| 1.; 0. |]) (vec [| 0.; 1. |]));
  Alcotest.(check bool) "comparable" false
    (Dominance.incomparable (vec [| 1.; 1. |]) (vec [| 0.; 0. |]))

let ids data = List.map Tuple.id (Dataset.to_list data) |> List.sort compare

let test_skyline_small () =
  let data =
    Dataset.create
      [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.8; 0.8 |]; [| 0.5; 0.5 |]; [| 0.7; 0.7 |] |]
  in
  (* (0.5,0.5) and (0.7,0.7) are dominated by (0.8,0.8). *)
  Alcotest.(check (list int)) "skyline ids" [ 0; 1; 2 ] (ids (Skyline.skyline data))

let test_skyline_duplicates_kept () =
  let data = Dataset.create [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |] in
  Alcotest.(check int) "both duplicates kept" 2 (Dataset.size (Skyline.skyline data))

let test_c_skyline_prunes_more () =
  let data =
    Dataset.create [| [| 1.; 1. |]; [| 0.97; 0.97 |]; [| 0.9; 0.9 |] |]
  in
  (* Plain skyline keeps only (1,1)'s non-dominated set = {(1,1)}; here both
     others are dominated.  The 1.05-skyline keeps (0.97,0.97) because
     1.05*(0.97) > 1. *)
  Alcotest.(check (list int)) "skyline" [ 0 ] (ids (Skyline.skyline data));
  Alcotest.(check (list int)) "1.05-skyline" [ 0; 1 ]
    (ids (Skyline.c_skyline ~c:1.05 data))

let test_prune_eps_keeps_dominated_but_close () =
  (* The indistinguishability query must retain dominated tuples that are
     not (1+eps)-dominated (Section I discussion). *)
  let data = Dataset.create [| [| 1.; 1. |]; [| 0.98; 0.99 |] |] in
  Alcotest.(check int) "dominated tuple survives" 2
    (Dataset.size (Skyline.prune_eps_dominated ~eps:0.05 data))

let test_empty_dataset () =
  let empty = Dataset.create [||] in
  Alcotest.(check int) "skyline of empty" 0 (Dataset.size (Skyline.skyline empty))

let test_is_dominated_by_any () =
  let data = Dataset.create [| [| 1.; 1. |]; [| 0.5; 0.5 |] |] in
  Alcotest.(check bool) "dominated" true
    (Skyline.is_dominated_by_any data (Dataset.get data 1));
  Alcotest.(check bool) "not dominated" false
    (Skyline.is_dominated_by_any data (Dataset.get data 0))

let random_dataset rng =
  let n = 1 + Rng.int rng 150 in
  let d = 1 + Rng.int rng 4 in
  let kind = Rng.int rng 3 in
  match kind with
  | 0 -> Generator.independent rng ~n ~d
  | 1 -> Generator.correlated rng ~n ~d
  | _ -> Generator.anti_correlated rng ~n ~d

let prop_sfs_equals_bnl =
  QCheck2.Test.make ~count:80 ~name:"SFS c-skyline = BNL c-skyline"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let data = random_dataset rng in
      let c = 1. +. Rng.float rng 0.3 in
      ids (Skyline.c_skyline_sfs ~c data) = ids (Skyline.c_skyline_bnl ~c data))

let prop_skyline_members_undominated =
  QCheck2.Test.make ~count:60 ~name:"skyline members are undominated"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let data = random_dataset rng in
      let sky = Skyline.skyline data in
      Array.for_all
        (fun p -> not (Skyline.is_dominated_by_any data p))
        (Dataset.tuples sky))

let prop_c_skyline_monotone_in_c =
  QCheck2.Test.make ~count:60 ~name:"larger c keeps at least as much"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let data = random_dataset rng in
      let c1 = 1. +. Rng.float rng 0.1 in
      let c2 = c1 +. Rng.float rng 0.2 in
      let s1 = ids (Skyline.c_skyline ~c:c1 data) in
      let s2 = ids (Skyline.c_skyline ~c:c2 data) in
      (* Larger c makes c-domination harder, so the c-skyline grows:
         s1 ⊆ s2. *)
      List.for_all (fun id -> List.mem id s2) s1)

(* --- persisted skyline artifacts --- *)

module Artifact = Indq_dominance.Artifact

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "indq-artifact-%d" (Unix.getpid ()))
  in
  let rec cleanup path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> cleanup (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) (fun () -> f dir)

let test_artifact_roundtrip () =
  with_temp_dir @@ fun dir ->
  let rng = Rng.create 11 in
  let data = Generator.anti_correlated rng ~n:400 ~d:3 in
  let eps = 0.05 in
  let direct = Skyline.prune_eps_dominated ~eps data in
  (* Cold: no artifact yet. *)
  Alcotest.(check (option unit)) "cold lookup misses" None
    (Option.map ignore (Artifact.lookup ~dir ~c:(1. +. eps) data));
  let first = Artifact.prune_eps_dominated_cached ~dir ~eps data in
  Alcotest.(check (list int)) "first run = direct" (ids direct) (ids first);
  (* Warm: the lookup must now succeed and reproduce the result exactly. *)
  (match Artifact.lookup ~dir ~c:(1. +. eps) data with
  | None -> Alcotest.fail "expected an artifact hit"
  | Some cached ->
    Alcotest.(check (list int)) "cached = direct" (ids direct) (ids cached));
  let second = Artifact.prune_eps_dominated_cached ~dir ~eps data in
  Alcotest.(check (list int)) "second run = direct" (ids direct) (ids second);
  (* A different eps is a different key, never a false hit. *)
  Alcotest.(check (option unit)) "other eps misses" None
    (Option.map ignore (Artifact.lookup ~dir ~c:1.2 data))

let test_artifact_corrupt_recomputes () =
  with_temp_dir @@ fun dir ->
  let rng = Rng.create 23 in
  let data = Generator.independent rng ~n:300 ~d:3 in
  let eps = 0.05 in
  let direct = Skyline.prune_eps_dominated ~eps data in
  ignore (Artifact.prune_eps_dominated_cached ~dir ~eps data);
  let path =
    Artifact.path ~dir ~fingerprint:(Dataset.fingerprint data) ~c:(1. +. eps)
  in
  Alcotest.(check bool) "artifact written" true (Sys.file_exists path);
  (* Scribble over the artifact: positions out of range, garbage lines.
     Robustness contract: treated as a miss, recomputed, correct. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "garbage\n999999999\nnot-a-number\n");
  Alcotest.(check (option unit)) "corrupt lookup misses" None
    (Option.map ignore (Artifact.lookup ~dir ~c:(1. +. eps) data));
  let recomputed = Artifact.prune_eps_dominated_cached ~dir ~eps data in
  Alcotest.(check (list int)) "recomputed = direct" (ids direct)
    (ids recomputed)

let prop_store_equals_bnl =
  QCheck2.Test.make ~count:60 ~name:"columnar c-skyline = BNL"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let data = random_dataset rng in
      let c = 1. +. Rng.float rng 0.3 in
      ids (Skyline.c_skyline_store ~c data) = ids (Skyline.c_skyline_bnl ~c data))

(* The generic entry point against the oracle, with n drawn on both sides
   of the 512-row SFS/Strtree threshold (half the cases within 16 rows of
   it), d from 1 to 5 and all three generators.  Also pins which dispatch
   counter moved: exactly one bump, on the path the shape selects. *)
let prop_dispatch_equals_bnl =
  QCheck2.Test.make ~count:40 ~name:"c_skyline dispatch = BNL"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n =
        if Rng.bool rng then 497 + Rng.int rng 32 else 1 + Rng.int rng 1200
      in
      let d = 1 + Rng.int rng 5 in
      let data =
        match Rng.int rng 3 with
        | 0 -> Generator.independent rng ~n ~d
        | 1 -> Generator.correlated rng ~n ~d
        | _ -> Generator.anti_correlated rng ~n ~d
      in
      let c = 1. +. Rng.float rng 0.3 in
      let paths = [ "sweep"; "sfs"; "store" ] in
      let counts () =
        List.map (fun p -> Indq_obs.Counter.get ("skyline.path_" ^ p)) paths
      in
      (* Unsorted: every variant must also keep the original row order. *)
      let ids data = List.map Tuple.id (Dataset.to_list data) in
      let before = counts () in
      let got = ids (Skyline.c_skyline ~c data) in
      let moved = List.map2 (fun a b -> b -. a) before (counts ()) in
      let expected_path =
        if d = 2 then "sweep" else if n <= 512 then "sfs" else "store"
      in
      got = ids (Skyline.c_skyline_bnl ~c data)
      && List.for_all2
           (fun p m -> m = if p = expected_path then 1. else 0.)
           paths moved)

let prop_sweep_2d_equals_bnl =
  QCheck2.Test.make ~count:120 ~name:"2D sweep c-skyline = BNL"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 200 in
      (* Include exact duplicates, zeros and boundary values on purpose. *)
      let coarse () = float_of_int (Rng.int rng 8) /. 7. in
      let data =
        Dataset.create (Array.init n (fun _ -> [| coarse (); coarse () |]))
      in
      let c = if Rng.bool rng then 1. else 1. +. Rng.float rng 0.3 in
      ids (Skyline.c_skyline_sweep_2d ~c data) = ids (Skyline.c_skyline_bnl ~c data))

let test_rtree_path_counts_nodes () =
  (* c_skyline sends inputs above 512 rows (d <> 2) to the packed
     Strtree; pin that such a call really takes that path and accounts
     its node traffic, so a zero rtree.nodes_visited in a report means no
     input crossed the threshold, not a broken wire. *)
  let rng = Rng.create 515 in
  let data = Generator.anti_correlated rng ~n:600 ~d:3 in
  let nodes () = Indq_obs.Counter.get "rtree.nodes_visited" in
  let store () = Indq_obs.Counter.get "skyline.path_store" in
  let before = nodes () and store_before = store () in
  let s = ids (Skyline.c_skyline ~c:1.05 data) in
  Alcotest.(check bool) "skyline nonempty" true (s <> []);
  Alcotest.(check (float 0.)) "dispatched to the store path"
    (store_before +. 1.) (store ());
  Alcotest.(check bool) "rtree.nodes_visited incremented" true
    (nodes () > before);
  (* At or below the threshold the SFS window pass runs and the index
     counter stays untouched — an observed zero there is by design. *)
  let small = Dataset.select_rows data (Array.init 512 Fun.id) in
  let mid = nodes () in
  ignore (Skyline.c_skyline ~c:1.05 small);
  Alcotest.(check (float 0.)) "small inputs skip the index" mid (nodes ())

let test_sweep_2d_dimension_guard () =
  let data = Dataset.create [| [| 1.; 2.; 3. |] |] in
  Alcotest.check_raises "3D rejected"
    (Invalid_argument "Skyline.c_skyline_sweep_2d: data must be 2-dimensional")
    (fun () -> ignore (Skyline.c_skyline_sweep_2d ~c:1.05 data))

let prop_dominance_transitive =
  QCheck2.Test.make ~count:100 ~name:"dominance is transitive"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 4 in
      let p () = Vec.init d (fun _ -> Rng.uniform rng) in
      let a = p () and b = p () and c = p () in
      if Dominance.dominates a b && Dominance.dominates b c then
        Dominance.dominates a c
      else true)

let () =
  Alcotest.run "dominance"
    [
      ( "predicates",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "c-dominates" `Quick test_c_dominates;
          Alcotest.test_case "zero tuple" `Quick test_c_dominates_zero_tuple;
          Alcotest.test_case "incomparable" `Quick test_incomparable;
        ] );
      ( "skyline",
        [
          Alcotest.test_case "small example" `Quick test_skyline_small;
          Alcotest.test_case "duplicates kept" `Quick test_skyline_duplicates_kept;
          Alcotest.test_case "c-skyline prunes more" `Quick test_c_skyline_prunes_more;
          Alcotest.test_case "keeps dominated-but-close" `Quick
            test_prune_eps_keeps_dominated_but_close;
          Alcotest.test_case "empty dataset" `Quick test_empty_dataset;
          Alcotest.test_case "is dominated by any" `Quick test_is_dominated_by_any;
          Alcotest.test_case "sweep 2d guard" `Quick test_sweep_2d_dimension_guard;
          Alcotest.test_case "rtree path counts nodes" `Quick
            test_rtree_path_counts_nodes;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "corrupt recomputes" `Quick
            test_artifact_corrupt_recomputes;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_sfs_equals_bnl;
          QCheck_alcotest.to_alcotest prop_sweep_2d_equals_bnl;
          QCheck_alcotest.to_alcotest prop_dispatch_equals_bnl;
          QCheck_alcotest.to_alcotest prop_store_equals_bnl;
          QCheck_alcotest.to_alcotest prop_skyline_members_undominated;
          QCheck_alcotest.to_alcotest prop_c_skyline_monotone_in_c;
          QCheck_alcotest.to_alcotest prop_dominance_transitive;
        ] );
    ]
