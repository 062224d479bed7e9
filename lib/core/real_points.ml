module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple
module Skyline = Indq_dominance.Skyline
module Oracle = Indq_user.Oracle
module Rng = Indq_util.Rng
module Span = Indq_obs.Span
module Trace = Indq_obs.Trace
module Counter = Indq_obs.Counter

(* Shares the geometry layer's cache counter: a memoized display-set score
   is an incremental-engine hit like any other. *)
let c_cache_hits = Counter.make "poly.cache_hits"

(* Rounds whose posterior region came back empty (contradictory answers
   beyond the modeled delta) or unverifiable (solver failure): the round's
   answer is dropped and the previous sound region kept. *)
let c_collapses = Counter.make "region.collapses"

(* Rounds whose Lemma 2 prune was skipped because the solver failed
   mid-prune; the unpruned candidate set (a superset — always sound) is
   carried to the next round instead. *)
let c_prune_degraded = Counter.make "prune.degraded"

type strategy = Random | MinR | MinD

type result = {
  output : Dataset.t;
  region : Region.t;
  questions_used : int;
}

(* [scored] also returns the posterior regions it built, indexed like
   [display]: when the trial wins the round, the posterior matching the
   oracle's answer becomes the next committed region, carrying its
   memoized artifacts instead of being rebuilt from scratch.
   On an aborted trial the tail entries keep the placeholder (the parent
   region); aborted trials score [infinity] and can never win, so those
   entries are never read. *)
let scored ?stop_above ~delta ~metric region display =
  let n = Array.length display in
  if n = 0 then invalid_arg "Real_points.score_display_set: empty display";
  let posteriors = Array.make n region in
  (* Contributions are non-negative, so the running float total is
     monotone nondecreasing (rounding is monotone) and so is division by
     the positive [n]: once [partial /. n >= best], the finished score —
     computed through the very same division — is at least the partial
     mean and fails the caller's strict [<] test.  Aborting there is
     decision-exact, not merely approximate: the trial loses either way,
     only its LPs are skipped. *)
  let best_to_beat = Option.value stop_above ~default:infinity in
  let nf = float_of_int n in
  let total = ref 0. in
  (* Monotone doom test, shared with the metric folds: width / diameter
     accumulate a running maximum that only grows, so once even the
     partial metric pushes the would-be score past [best_to_beat] the
     remaining directions (and posteriors) cannot rescue the trial. *)
  let doomed acc = (!total +. acc) /. nf >= best_to_beat in
  (try
     for winner_index = 0 to n - 1 do
       let winner = Tuple.values display.(winner_index) in
       let losers = ref [] in
       Array.iteri
         (fun i p ->
           if i <> winner_index then losers := Tuple.values p :: !losers)
         display;
       let posterior = Region.observe ~delta region ~winner ~losers:!losers in
       posteriors.(winner_index) <- posterior;
       let contribution =
         if Region.is_empty posterior then 0.
         else
           match metric with
           | `Width -> Region.width ~stop_when:doomed posterior
           | `Diameter -> Region.diameter ~stop_when:doomed posterior
       in
       total := !total +. contribution;
       if !total /. nf >= best_to_beat then raise Exit
     done;
     total := !total /. nf
   with
  | Exit -> total := infinity
  | Indq_geom.Polytope.Solver_error _ ->
    (* A posterior's metric could not be computed: score the trial
       unusable.  Like an abort, the placeholder posteriors are never
       read because an infinite score cannot win the round. *)
    total := infinity);
  (!total, posteriors)

let score_display_set ?stop_above ~delta ~metric region display =
  fst (scored ?stop_above ~delta ~metric region display)

let pick_display ~strategy ~trials ~delta ~rng region candidates s =
  let n = Dataset.size candidates in
  let count = min s n in
  (* Positional sampling: identical draws and row choices as sampling from
     [Dataset.tuples candidates], but only the [count] sampled views are
     ever built — the 10^7-row rounds cannot afford an n-sized view
     array (or the dense Fisher–Yates behind it) per trial. *)
  let sample () =
    Array.map
      (Dataset.get candidates)
      (Rng.sample_positions_without_replacement rng count n)
  in
  match strategy with
  | Random -> (sample (), [||])
  | MinR | MinD ->
    let metric = if strategy = MinR then `Width else `Diameter in
    (* Prime the committed region's extreme caches once per round: every
       posterior scored below is a cut of [region], so its width /
       diameter queries inherit the parent's ranges as upper-bound hints
       and skip the directions that cannot attain the maximum.  Hint-cache
       only — no effect on which display set wins. *)
    (match metric with
    | `Width -> ignore (Region.width region)
    | `Diameter -> ignore (Region.diameter region));
    (* Per-round score memo: sampling with replacement across trials can
       redraw a display set, and the score is a pure function of (region,
       display), so replaying it from the memo is bit-exact.  A memoized
       [infinity] (aborted trial) stays safe on reuse: the abort certified
       the score is >= the best at that time, and the best only decreases,
       so the repeat would lose its strict [<] test either way. *)
    let seen = Hashtbl.create 16 in
    let key display =
      Array.to_list (Array.map Tuple.id display) |> List.sort compare
    in
    let score_of ?stop_above candidate =
      let k = key candidate in
      match Hashtbl.find_opt seen k with
      | Some cached ->
        Counter.incr c_cache_hits;
        cached
      | None ->
        let result = scored ?stop_above ~delta ~metric region candidate in
        Hashtbl.replace seen k result;
        result
    in
    let best = ref (sample ()) in
    let best_score, best_posts =
      let score, posts = score_of !best in
      (ref score, ref posts)
    in
    for _ = 2 to trials do
      let candidate = sample () in
      let score, posts = score_of ~stop_above:!best_score candidate in
      if score < !best_score then begin
        best := candidate;
        best_score := score;
        best_posts := posts
      end
    done;
    (!best, !best_posts)

let run ?(delta = 0.) ?(trials = 10) ?(anchors = 4) ?store ?source_n strategy
    ~data ~s ~q ~eps ~oracle ~rng =
  if s < 2 then invalid_arg "Real_points.run: s must be >= 2";
  if q < 0 then invalid_arg "Real_points.run: negative question budget";
  if eps <= 0. then invalid_arg "Real_points.run: eps must be positive";
  if delta < 0. then invalid_arg "Real_points.run: negative delta";
  if trials < 1 then invalid_arg "Real_points.run: trials must be >= 1";
  if Dataset.size data = 0 then invalid_arg "Real_points.run: empty dataset";
  let questions_before = Oracle.questions_asked oracle in
  let d = Dataset.dim data in
  (* Line 1: Observation 3 pre-filter. *)
  let candidates =
    ref
      (Pruning.skyline_stage ?source_n data (fun data ->
           Span.timed "real_points.skyline" (fun () ->
               Skyline.prune_eps_dominated ~eps data)))
  in
  let region = ref (Region.initial ~d) in
  (* One certificate store for the whole interaction: the region only
     shrinks across rounds, so prune certificates carry over (see
     {!Pruning.Store}). *)
  let store =
    match store with Some s -> s | None -> Pruning.Store.create ()
  in
  let rounds_left = ref q in
  while !rounds_left > 0 && Dataset.size !candidates > 1 do
    let round = q - !rounds_left + 1 in
    Trace.emit_with (fun () ->
        Trace.Round_started { round; candidates = Dataset.size !candidates });
    let display, posteriors =
      Span.timed "real_points.pick_display" (fun () ->
          pick_display ~strategy ~trials ~delta ~rng !region !candidates s)
    in
    if Array.length display >= 2 then begin
      let values = Array.map Tuple.values display in
      let choice = Oracle.choose oracle values in
      (* Line 12: cut the region; keep the old one if the answers were
         inconsistent beyond the modeled delta (empty region admits no
         sound inference).  Under MinR/MinD the winning trial already built
         this exact posterior (same [observe] call), so its region — with
         the memoized artifacts paid for during scoring — is adopted
         instead of being rebuilt. *)
      let updated =
        if Array.length posteriors = Array.length display then
          posteriors.(choice)
        else begin
          let winner = values.(choice) in
          let losers = ref [] in
          Array.iteri
            (fun i v -> if i <> choice then losers := v :: !losers)
            values;
          Span.timed "real_points.observe" (fun () ->
              Region.observe ~delta !region ~winner ~losers:!losers)
        end
      in
      let empty = Region.is_empty updated in
      Trace.emit_with (fun () ->
          Trace.Region_updated
            {
              round;
              halfspaces =
                List.length
                  (Indq_geom.Polytope.halfspaces (Region.polytope updated));
              empty;
            });
      if not empty then begin
        region := updated;
        (* Line 13: Lemma 2 pruning.  A solver failure mid-prune degrades
           to not pruning this round: the unpruned candidate set is a
           superset of the correctly pruned one, so no tuple the user
           could want is lost. *)
        match
          Span.timed "real_points.lemma2_prune" (fun () ->
              Pruning.region_prune ~anchors ~store ~eps !region !candidates)
        with
        | pruned -> candidates := pruned
        | exception Indq_geom.Polytope.Solver_error _ ->
          Counter.incr c_prune_degraded
      end
      else Counter.incr c_collapses
    end;
    decr rounds_left
  done;
  {
    output = !candidates;
    region = !region;
    questions_used = Oracle.questions_asked oracle - questions_before;
  }

let uh_random ?delta ?anchors ?store ?source_n ~data ~s ~q ~eps ~oracle ~rng ()
    =
  run ?delta ?anchors ?store ?source_n Random ~data ~s ~q ~eps ~oracle ~rng
