module Dataset = Indq_dataset.Dataset
module Fault = Indq_fault.Fault
module Skyline = Indq_dominance.Skyline
module Oracle = Indq_user.Oracle
module Vec = Indq_linalg.Vec
module Counter = Indq_obs.Counter
module Span = Indq_obs.Span
module Trace = Indq_obs.Trace

let c_widened = Counter.make "squeeze_u2.widened_restarts"

type result = {
  output : Dataset.t;
  lo : Vec.t;
  hi : Vec.t;
  i_star : int;
  questions_used : int;
}

let robust_bounds ~delta ~s ~chi ~c =
  if c < 1 || c > s then invalid_arg "Squeeze_u2.robust_bounds: c out of range";
  let tail = ref 0. in
  for j = c to s - 1 do
    tail := !tail +. chi.(j)
  done;
  let cf = float_of_int c in
  let new_lo = (chi.(c - 1) -. (delta *. !tail)) /. (1. +. (cf *. delta)) in
  let denominator = 1. -. (cf *. delta) in
  let new_hi =
    if denominator <= 0. then infinity
    else (chi.(c) +. (delta *. !tail)) /. denominator
  in
  (new_lo, new_hi)

let run ?(exact_prune = false) ?source_n ~data ~s ~q ~eps ~delta ~oracle () =
  if s < 2 then invalid_arg "Squeeze_u2.run: s must be >= 2";
  if q < 0 then invalid_arg "Squeeze_u2.run: negative question budget";
  if eps <= 0. then invalid_arg "Squeeze_u2.run: eps must be positive";
  if delta < 0. then invalid_arg "Squeeze_u2.run: negative delta";
  if Dataset.size data = 0 then invalid_arg "Squeeze_u2.run: empty dataset";
  let questions_before = Oracle.questions_asked oracle in
  let d = Dataset.dim data in
  (* Line 1: Observation 3 pre-filter. *)
  let candidates =
    Pruning.skyline_stage ?source_n data (fun data ->
        Span.timed "squeeze_u2.skyline" (fun () ->
            Skyline.prune_eps_dominated ~eps data))
  in
  let n_candidates = Dataset.size candidates in
  (* Line 2: unit display points. *)
  let make_point i = Vec.basis d i in
  let i_star, remaining =
    if d = 1 then (0, q)
    else
      (* Same tournament as Algorithm 1, but over unit vectors. *)
      Span.timed "squeeze_u2.phase1" (fun () ->
          let i_star = ref 0 in
          let i = ref 1 in
          let budget = ref q in
          let round = ref 0 in
          while !i < d && !budget > 0 do
            incr round;
            Trace.emit_with (fun () ->
                Trace.Round_started
                  { round = !round; candidates = n_candidates });
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
          (!i_star, !budget))
  in
  (* Line 8: the discovered u_{i*} may be short of the maximum by up to
     (1+delta) per tournament round, so widen the other upper bounds. *)
  let tournament_rounds =
    if d = 1 then 0 else (d - 2) / (s - 1) + 1 (* = ceil((d-1)/(s-1)) *)
  in
  (* If the budget cut the tournament short, nothing bounds the other
     coefficients relative to u_{i*}. *)
  let initial_hi =
    if q >= tournament_rounds then (1. +. delta) ** float_of_int tournament_rounds
    else 1e6
  in
  let lo = Array.make d 0. and hi = Array.make d initial_hi in
  lo.(i_star) <- 1.;
  hi.(i_star) <- 1.;
  (* Lines 9-17: delta-robust ladder rounds. *)
  let remaining = ref remaining in
  let round = ref (q - !remaining) in
  let i = ref (if i_star = 0 && d > 1 then 1 else 0) in
  Span.timed "squeeze_u2.ladder" (fun () ->
      while d > 1 && !remaining > 0 do
        incr round;
        Trace.emit_with (fun () ->
            Trace.Round_started { round = !round; candidates = n_candidates });
        let chi = Squeeze_u.chi_ladder ~lo:lo.(!i) ~hi:hi.(!i) ~s in
        let display = Squeeze_u.ladder_points ~d ~s ~i:!i ~i_star ~chi in
        let c = Oracle.choose oracle display + 1 in
        let new_lo, new_hi = robust_bounds ~delta ~s ~chi ~c in
        let lo' = Float.max lo.(!i) (Float.max 0. new_lo) in
        let hi' = Float.min hi.(!i) new_hi in
        (* Because the χ rungs are built on the accumulated interval, an
           answer's Theorem 3 interval always nests inside it — so a real
           inversion here means numeric corruption of the bounds, not a
           mere lie.  The armed adversarial-user fault forces the same
           degradation path so its recovery invariant is exercisable. *)
        let corrupted = lo' -. hi' > 1e-9 *. Float.max 1. lo' in
        if Fault.fire "inject.oracle_contradiction" || corrupted then begin
          (* Degrading instead of keeping a collapsed (or suspect) interval:
             restart this coordinate on the disagreement zone widened by
             (1+eps) each way.  Every value consistent with either side
             survives — a superset of the sound interval — so the Theorem 3
             no-false-negatives guarantee is preserved relative to
             whichever answers were honest. *)
          Counter.incr c_widened;
          lo.(!i) <- Float.max 0. (Float.min lo' hi' /. (1. +. eps));
          hi.(!i) <- Float.min initial_hi (Float.max lo' hi' *. (1. +. eps))
        end
        else begin
          (* Line 16: only ever tighten, and keep the interval well-formed
             under float noise. *)
          lo.(!i) <- lo';
          hi.(!i) <- hi';
          if lo.(!i) > hi.(!i) then lo.(!i) <- hi.(!i)
        end;
        decr remaining;
        let next = ref ((!i + 1) mod d) in
        if !next = i_star then next := (!next + 1) mod d;
        i := !next
      done);
  (* Lines 18-21: prune with the learned box. *)
  let lo = Vec.of_array lo and hi = Vec.of_array hi in
  let output =
    Span.timed "squeeze_u2.box_prune" (fun () ->
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
