(* Equivalence properties of the cached geometry engine.

   Its contract: per-region memos, inherited hints, the doom-test abort and
   the cross-round prune store change only counters and wall time, never
   answers.  Each property computes the same thing twice — once through
   the caches or shortcut, once without them — and demands identical
   results, with no global switch: a region chain whose ancestors were all
   queried against the same cut list built fresh and queried only at the
   leaf, display-set scoring with and without [stop_above], and pruning
   with and without a store. *)

module Real_points = Indq_core.Real_points
module Pruning = Indq_core.Pruning
module Region = Indq_core.Region
module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple
module Generator = Indq_dataset.Generator
module Polytope = Indq_geom.Polytope
module Halfspace = Indq_geom.Halfspace
module Utility = Indq_user.Utility
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

let ids data =
  Dataset.tuples data |> Array.to_list
  |> List.map Tuple.id
  |> List.sort compare

(* Geometry-level equivalence: a leaf whose ancestors were all queried
   first inherits their memoized pairs, feasibility witnesses and fold
   hints; the same cut list built fresh and queried only at the leaf has
   none of them.  Every answer is a pure function of the cut list, so
   verdicts and values must agree bit for bit — also on a second round of
   queries that hits the leaf's own memos. *)
let prop_polytope_warm_matches_fresh =
  QCheck2.Test.make ~count:50
    ~name:"polytope queries: warmed vs fresh"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 3 in
      let cuts =
        List.init
          (1 + Rng.int rng 4)
          (fun _ ->
            let normal =
              Vec.init d (fun _ -> Rng.float rng 2. -. 1.)
            in
            Halfspace.ge normal (Rng.float rng 0.4 -. 0.2))
      in
      let probe r =
        if Polytope.is_empty r then None
        else
          Some
            ( Polytope.coordinate_bounds r,
              Vec.to_array (Polytope.center_estimate r),
              Polytope.width r,
              Polytope.diameter r )
      in
      let warmed =
        List.fold_left
          (fun r h ->
            ignore (probe r);
            Polytope.cut r h)
          (Polytope.simplex d) cuts
      in
      let fresh = Polytope.cut_many (Polytope.simplex d) cuts in
      let w1 = probe warmed in
      let f1 = probe fresh in
      let w2 = probe warmed in
      let f2 = probe fresh in
      w1 = f1 && w2 = f2 && w1 = w2)

(* The doom-test abort is decision-exact: replaying the display pick's
   trial loop with [stop_above] set to the best score so far picks the
   same winner, with the same score, as scoring every trial in full.  The
   two loops run on separately built (equal) regions so neither sees the
   other's memos. *)
let prop_stop_above_same_winner =
  QCheck2.Test.make ~count:20
    ~name:"stop_above picks the same winner"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 3 in
      let data = Generator.independent rng ~n:(20 + Rng.int rng 30) ~d in
      let u = Utility.random rng ~d in
      let answers =
        List.init (1 + Rng.int rng 3) (fun _ ->
            let a = Vec.init d (fun _ -> Rng.float rng 1.) in
            let b = Vec.init d (fun _ -> Rng.float rng 1.) in
            if Utility.value u a >= Utility.value u b then (a, [ b ])
            else (b, [ a ]))
      in
      let region () =
        List.fold_left
          (fun r (winner, losers) ->
            let updated = Region.observe r ~winner ~losers in
            if Region.is_empty updated then r else updated)
          (Region.initial ~d) answers
      in
      let s = 2 + Rng.int rng 2 in
      let displays =
        List.init
          (2 + Rng.int rng 6)
          (fun _ ->
            Array.map (Dataset.get data)
              (Rng.sample_positions_without_replacement rng s
                 (Dataset.size data)))
      in
      List.for_all
        (fun metric ->
          (* Index and score of the first strict minimum, as the display
             pick's [score < best] loop keeps it. *)
          let pick score_of =
            match displays with
            | [] -> assert false
            | first :: rest ->
              let best = ref (0, score_of None first) in
              List.iteri
                (fun i display ->
                  let score = score_of (Some (snd !best)) display in
                  if score < snd !best then best := (i + 1, score))
                rest;
              !best
          in
          let full = region () and pruned = region () in
          pick (fun _ display ->
              Real_points.score_display_set ~delta:0. ~metric full display)
          = pick (fun stop_above display ->
                Real_points.score_display_set ?stop_above ~delta:0. ~metric
                  pruned display))
        [ `Width; `Diameter ])

(* The prune store must never change which candidates survive a round
   sequence — only how many LPs are issued. *)
let prop_store_preserves_prune_decisions =
  QCheck2.Test.make ~count:30
    ~name:"prune store: same survivors with and without"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 2 in
      let data = Generator.independent rng ~n:(20 + Rng.int rng 30) ~d in
      let eps = 0.02 +. Rng.float rng 0.2 in
      let u = Utility.random rng ~d in
      (* A shrinking region chain from synthetic preference answers. *)
      let answers =
        List.init (2 + Rng.int rng 3) (fun _ ->
            let a = Vec.init d (fun _ -> Rng.float rng 1.) in
            let b = Vec.init d (fun _ -> Rng.float rng 1.) in
            if Utility.value u a >= Utility.value u b then (a, [ b ])
            else (b, [ a ]))
      in
      let prune_chain store =
        let region = ref (Region.initial ~d) in
        let survivors = ref data in
        List.iter
          (fun (winner, losers) ->
            let updated = Region.observe !region ~winner ~losers in
            if not (Region.is_empty updated) then begin
              region := updated;
              survivors := Pruning.region_prune ?store ~eps !region !survivors
            end)
          answers;
        ids !survivors
      in
      prune_chain (Some (Pruning.Store.create ())) = prune_chain None)

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_stop_above_same_winner;
          QCheck_alcotest.to_alcotest prop_polytope_warm_matches_fresh;
          QCheck_alcotest.to_alcotest prop_store_preserves_prune_decisions;
        ] );
    ]
