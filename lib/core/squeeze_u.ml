module Dataset = Indq_dataset.Dataset
module Vec = Indq_linalg.Vec
module Skyline = Indq_dominance.Skyline
module Oracle = Indq_user.Oracle
module Span = Indq_obs.Span
module Trace = Indq_obs.Trace

type result = {
  output : Dataset.t;
  lo : Vec.t;
  hi : Vec.t;
  i_star : int;
  questions_used : int;
}

let chi_ladder ~lo ~hi ~s =
  if s < 1 then invalid_arg "Squeeze_u.chi_ladder: s must be >= 1";
  Array.init (s + 1) (fun j ->
      lo +. (float_of_int j *. (hi -. lo) /. float_of_int s))

(* Line 14: p_k has k/s in coordinate i, the tail-average of the chi ladder
   in coordinate i*, and 0 elsewhere (k is 1-based). *)
let ladder_points ~d ~s ~i ~i_star ~chi =
  if i = i_star then invalid_arg "Squeeze_u.ladder_points: i = i*";
  Array.init s (fun k0 ->
      let k = k0 + 1 in
      let p = Vec.make d 0. in
      let tail = ref 0. in
      for l = k to s - 1 do
        tail := !tail +. chi.(l)
      done;
      Vec.set p i_star (!tail /. float_of_int s);
      Vec.set p i (float_of_int k /. float_of_int s);
      p)

(* Phase 1 (Lines 2-8): tournament over the e_i points to find i*.
   [questions] is the remaining budget; returns (i_star, questions_left).
   [candidates] (default 0) is only reported in trace events. *)
let discover_i_star ?(candidates = 0) ~d ~s ~make_point ~oracle ~budget () =
  let i_star = ref 0 in
  let i = ref 1 in
  let budget = ref budget in
  let round = ref 0 in
  while !i < d && !budget > 0 do
    incr round;
    Trace.emit_with (fun () ->
        Trace.Round_started { round = !round; candidates });
    let count = min (s - 1) (d - !i) in
    let display =
      Array.init (count + 1) (fun k ->
          if k = 0 then make_point !i_star else make_point (!i + k - 1))
    in
    let choice = Oracle.choose oracle display in
    if choice > 0 then i_star := !i + choice - 1;
    i := !i + count;
    decr budget
  done;
  (!i_star, !budget)

(* Phase 2 round for dimension [i]: show the ladder, narrow [L_i, H_i] by a
   factor of s (Lines 13-16).  [update] receives the 1-based choice. *)
let ladder_round ~d ~s ~i ~i_star ~lo ~hi ~oracle ~update =
  let chi = chi_ladder ~lo:lo.(i) ~hi:hi.(i) ~s in
  let display = ladder_points ~d ~s ~i ~i_star ~chi in
  let c = Oracle.choose oracle display + 1 in
  update ~chi ~c

let run ?(exact_prune = false) ?source_n ~data ~s ~q ~eps ~oracle () =
  if s < 2 then invalid_arg "Squeeze_u.run: s must be >= 2";
  if q < 0 then invalid_arg "Squeeze_u.run: negative question budget";
  if eps <= 0. then invalid_arg "Squeeze_u.run: eps must be positive";
  if Dataset.size data = 0 then invalid_arg "Squeeze_u.run: empty dataset";
  let questions_before = Oracle.questions_asked oracle in
  let d = Dataset.dim data in
  (* Line 1: Observation 3 pre-filter. *)
  let candidates =
    Pruning.skyline_stage ?source_n data (fun data ->
        Span.timed "squeeze_u.skyline" (fun () ->
            Skyline.prune_eps_dominated ~eps data))
  in
  let n_candidates = Dataset.size candidates in
  (* Lines 2-3: the e_i display points from the data ranges. *)
  let ranges = Dataset.attribute_ranges candidates in
  let make_point i =
    Vec.init d (fun j ->
        let m_j, big_m_j = ranges.(j) in
        if j = i then m_j +. ((big_m_j -. m_j) /. 2.) else m_j)
  in
  let i_star, remaining =
    if d = 1 then (0, q)
    else
      Span.timed "squeeze_u.phase1" (fun () ->
          discover_i_star ~candidates:n_candidates ~d ~s ~make_point ~oracle
            ~budget:q ())
  in
  (* Line 9: initial bounds relative to u_{i*} = 1.  The paper sets
     H_j = 1, which is only valid when every attribute spans the same
     range: the phase-1 tournament actually establishes
     u_{i_star} * spread(i_star) >= u_j (M_j - m_j), i.e.
     u_j / u_{i*} <= spread(i_star) / spread(j).  We use that provable bound
     (equal to 1 on equal-range data), so the no-false-negative contract
     holds on arbitrarily normalized inputs.  If the question budget cut
     the tournament short, nothing is known and the bound stays at the
     cap. *)
  let spread j =
    let m_j, big_m_j = ranges.(j) in
    big_m_j -. m_j
  in
  let phase1_questions = if d = 1 then 0 else ((d - 2) / (s - 1)) + 1 in
  let phase1_complete = q >= phase1_questions in
  let ratio_cap = 1e6 in
  let initial_hi j =
    if not phase1_complete then ratio_cap
    else if spread j <= 1e-12 then ratio_cap
    else Float.min ratio_cap (spread i_star /. spread j)
  in
  let lo = Array.make d 0. in
  let hi = Array.init d initial_hi in
  lo.(i_star) <- 1.;
  hi.(i_star) <- 1.;
  (* Lines 10-17: cycle through the other dimensions. *)
  let remaining = ref remaining in
  let round = ref (q - !remaining) in
  let i = ref (if i_star = 0 && d > 1 then 1 else 0) in
  Span.timed "squeeze_u.ladder" (fun () ->
      while d > 1 && !remaining > 0 do
        incr round;
        Trace.emit_with (fun () ->
            Trace.Round_started { round = !round; candidates = n_candidates });
        ladder_round ~d ~s ~i:!i ~i_star ~lo ~hi ~oracle
          ~update:(fun ~chi ~c ->
            lo.(!i) <- chi.(c - 1);
            hi.(!i) <- chi.(c));
        decr remaining;
        (* Advance to the next dimension, skipping i*. *)
        let next = ref ((!i + 1) mod d) in
        if !next = i_star then next := (!next + 1) mod d;
        i := !next
      done);
  (* Lines 18-21: prune with the learned box. *)
  let lo = Vec.of_array lo and hi = Vec.of_array hi in
  let output =
    Span.timed "squeeze_u.box_prune" (fun () ->
        if exact_prune then Pruning.box_prune_exact ~eps ~lo ~hi candidates
        else Pruning.box_prune_fast ~eps ~lo ~hi candidates)
  in
  {
    output;
    lo;
    hi;
    i_star;
    questions_used = Oracle.questions_asked oracle - questions_before;
  }
