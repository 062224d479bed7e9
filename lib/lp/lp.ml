module Counter = Indq_obs.Counter
module Histogram = Indq_obs.Histogram
module Fault = Indq_fault.Fault
module Vec = Indq_linalg.Vec

let c_solves = Counter.make "lp.solves"
let c_dual_reopt = Counter.make "lp.dual_reopt"
let c_dual_pivots = Counter.make "lp.dual_pivots"
let c_failures = Counter.make "lp.failures"
let c_retry_attempts = Counter.make "retry.attempts"
let c_retry_exhausted = Counter.make "retry.exhausted"

(* Every pivot runs on a [Live] tableau and counts in [lp.dual_pivots]:
   phase-1 setup in [Live.create], dual-simplex cut absorption in
   [add_cut], phase-2 re-optimization in [optimize].  Re-optimizations
   count in [lp.dual_reopt] and observe [lp.pivots_per_reopt], measured
   as the delta of [lp.dual_pivots] around the call; pivot counts are
   integers, so the histogram (float sum included) merges exactly across
   domains.  [lp.solves] counts one-shot [solve] calls; the polytope
   bumps it too when it rebuilds a tableau from scratch. *)
let h_pivots_per_reopt = Histogram.make "lp.pivots_per_reopt"

type relation = Le | Ge | Eq

type constr = { coeffs : Vec.t; relation : relation; rhs : float }

type solution = { objective : float; point : Vec.t }

type error =
  | Iteration_limit of { budget : int }
  | Numerical of { detail : string }

type outcome = Optimal of solution | Infeasible | Unbounded | Failed of error

let constr coeffs relation rhs = { coeffs; relation; rhs }

let error_message = function
  | Iteration_limit { budget } ->
    Printf.sprintf
      "iteration budget of %d pivots exhausted under both pivot rules" budget
  | Numerical { detail } -> "numerical failure: " ^ detail

(* Internal escape hatch for corrupted arithmetic: raised where the tableau
   turns out to hold a non-finite value, caught in [Live] and surfaced as [Failed (Numerical _)].  Never leaves this module. *)
exception Bad_pivot of string

(* Internal dictionary tableau.

   Variables: [0, n) structural, [n, art_start) slack/surplus of the
   initial rows, [art_start, art_end) artificials (phase 1 only), and from
   [art_end] on the slacks of rows appended by [Live.add_cut].  Constraint
   row i reads [x_basis.(i) + sum_p a_ip x_nonbasic.(p) = rhs_i]: only the
   k nonbasic variables own a stored column (a "position"), since a basic
   variable's column is a unit vector.  Every row lives in one flat
   row-major buffer [cells] of stride k + 1, the rhs in its last cell;
   buffer row 0 is the objective (reduced costs, then the negated
   objective value) and constraint row i is buffer row i + 1, so a pivot
   eliminates the objective like any other row.  The buffer holds room
   for more rows than [m]; only the first m + 1 are live.

   A pivot puts the leaving variable in the entering one's position, so
   positions are in no particular variable order; [order] lists them by
   increasing variable index, and every scan walks it, so each pivot rule
   breaks ties by variable index exactly as a scan over a full tableau's
   columns does. *)
type tableau = {
  n : int;  (* structural variables *)
  art_start : int;  (* first artificial variable *)
  art_end : int;  (* one past the last artificial variable *)
  k : int;  (* nonbasic positions *)
  nonbasic : int array;  (* position -> variable *)
  order : int array;  (* positions by increasing variable index *)
  mutable m : int;  (* live constraint rows *)
  mutable nvars : int;  (* the next appended slack's variable index *)
  mutable cells : Vec.t;  (* (row capacity + 1) * (k + 1) cells *)
  mutable basis : int array;  (* row -> basic variable; row capacity *)
  tol : float;
}

let check_inputs ~n objective constraints =
  if n <= 0 then invalid_arg "Lp: need at least one variable";
  if Vec.dim objective <> n then invalid_arg "Lp: objective length <> n";
  List.iter
    (fun (c : constr) ->
      if Vec.dim c.coeffs <> n then
        invalid_arg "Lp: constraint coefficient length <> n")
    constraints

(* Offset of constraint row [i] in [cells]; row -1 is the objective. *)
let row_off t i = (i + 1) * (t.k + 1)
[@@inline] [@@indq.alloc_free "integer offset arithmetic"]

let cell t i p = Vec.get t.cells (row_off t i + p)
[@@inline] [@@indq.alloc_free "inlined bounds-checked read of the flat buffer"]

let rhs t i = cell t i t.k [@@inline] [@@indq.alloc_free "the rhs cell of a row"]

(* A tableau shell with room for [cap] constraint rows, all cells 0. *)
let alloc ~tol ~n ~art_start ~art_end ~nonbasic ~m ~nvars ~cap =
  let k = Array.length nonbasic in
  { n; art_start; art_end; k; nonbasic; order = Array.init k Fun.id; m;
    nvars; cells = Vec.make ((cap + 1) * (k + 1)) 0.;
    basis = Array.make cap (-1); tol }

(* Build the phase-1 tableau, with one spare row.  Every row is first
   normalized to rhs >= 0. *)
let build ~tol ~n constraints =
  (* Normalize rows so rhs >= 0, which may flip the relation.  A >= row
     with rhs exactly 0 is rewritten as a <= row (negated): its slack can
     start basic at 0, avoiding an artificial variable — the common case
     for preference-hyperplane cuts [(a - b) . v >= 0]. *)
  let cs =
    Array.map
      (fun (c : constr) ->
        if c.rhs < 0. || (Float.equal c.rhs 0. && c.relation = Ge) then
          let flipped =
            match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq
          in
          { coeffs = Vec.neg c.coeffs; relation = flipped; rhs = -.c.rhs }
        else c)
      (Array.of_list constraints)
  in
  let count rel =
    Array.fold_left (fun acc (c : constr) -> acc + Bool.to_int (c.relation = rel)) 0 cs
  in
  let m = Array.length cs and ges = count Ge in
  (* A <= row starts with its slack basic; >= and = rows start with an
     artificial, and a >= row's surplus starts nonbasic. *)
  let art_start = n + count Le + ges in
  let art_end = art_start + ges + count Eq in
  let nonbasic = Array.make (n + ges) 0 in
  let t =
    alloc ~tol ~n ~art_start ~art_end ~nonbasic ~m ~nvars:art_end ~cap:(m + 1)
  in
  for j = 0 to n - 1 do
    nonbasic.(j) <- j
  done;
  let next_slack = ref n and next_art = ref art_start and next_pos = ref n in
  Array.iteri
    (fun i (c : constr) ->
      let o = row_off t i in
      Vec.blit_slice ~src:c.coeffs ~src_pos:0 ~dst:t.cells ~dst_pos:o ~len:n;
      Vec.set t.cells (o + t.k) c.rhs;
      match c.relation with
      | Le ->
        t.basis.(i) <- !next_slack;
        incr next_slack
      | Ge ->
        nonbasic.(!next_pos) <- !next_slack;
        Vec.set t.cells (o + !next_pos) (-1.);
        incr next_pos;
        incr next_slack;
        t.basis.(i) <- !next_art;
        incr next_art
      | Eq ->
        t.basis.(i) <- !next_art;
        incr next_art)
    cs;
  (* Phase-1 objective: minimize the sum of artificials.  Express its
     reduced costs for the starting basis by subtracting each
     artificial's row (the artificials are all basic, so own no cell). *)
  for i = 0 to m - 1 do
    if t.basis.(i) >= art_start then
      Vec.axpy_slice (-1.) t.cells ~xpos:(row_off t i) t.cells ~ypos:0
        ~len:(t.k + 1)
  done;
  t

(* A fresh zeroed buffer of [size] cells that starts with [v]'s first
   [len]. *)
let prefix v ~len ~size =
  let w = Vec.make size 0. in
  Vec.blit_slice ~src:v ~src_pos:0 ~dst:w ~dst_pos:0 ~len;
  w

let tableau_corrupt t =
  let bad = ref false in
  for c = 0 to row_off t t.m - 1 do
    if not (Float.is_finite (Vec.get t.cells c)) then bad := true
  done;
  !bad

(* Restore [order] after one position's variable changed: an insertion
   sort, linear here because only one key moved. *)
let resort t =
  for i = 1 to t.k - 1 do
    let p = t.order.(i) in
    let v = t.nonbasic.(p) in
    let j = ref i in
    while !j > 0 && t.nonbasic.(t.order.(!j - 1)) > v do
      t.order.(!j) <- t.order.(!j - 1);
      decr j
    done;
    t.order.(!j) <- p
  done
[@@indq.alloc_free "in-place insertion sort over int arrays"]

(* Pivot on constraint row [row] and position [pos]: the entering
   variable [nonbasic.(pos)] becomes basic in [row], and the leaving
   variable takes over [pos].  The pivot row is scaled by 1/p, and its
   [pos] cell becomes 1/p (the leaving variable's column).  Every other
   row subtracts f times it after zeroing its [pos] cell, which leaves
   -f/p there. *)
let pivot t ~row ~pos =
  Counter.incr c_dual_pivots;
  let r = row_off t row in
  let pivot_value = Vec.get t.cells (r + pos) in
  if
    not
      ((Float.is_finite pivot_value)
      [@indq.alloc_ok
        "allocation-free by inspection (x -. x = 0. under the hood) but \
         outside the annotated surface"])
  then
    (raise
       (Bad_pivot
          (Printf.sprintf "non-finite pivot element in row %d, position %d"
             row pos))
    [@indq.alloc_ok
      "cold failure path: the exception payload only materializes when \
       the tableau is already corrupt"]);
  let inv = 1. /. pivot_value in
  Vec.scale_slice inv t.cells ~pos:r ~len:t.k;
  Vec.set t.cells (r + pos) inv;
  Vec.set t.cells (r + t.k) (Vec.get t.cells (r + t.k) /. pivot_value);
  for i = -1 to t.m - 1 do
    if i <> row then begin
      let o = row_off t i in
      let factor = Vec.get t.cells (o + pos) in
      if Float.abs factor > 0. then begin
        Vec.set t.cells (o + pos) 0.;
        Vec.axpy_slice (-.factor) t.cells ~xpos:r t.cells ~ypos:o
          ~len:(t.k + 1)
      end
    end
  done;
  let entering = t.nonbasic.(pos) in
  t.nonbasic.(pos) <- t.basis.(row);
  t.basis.(row) <- entering;
  resort t
[@@indq.alloc_free
  "dual-simplex pivot kernel: row scaling and elimination run as \
   in-place slice kernels over the flat dictionary"]

(* Entering position under the requested pivot rule, or -1 at
   optimality.  Dantzig picks the most negative reduced cost (smallest
   variable index on exact ties) — fast, but can cycle on degenerate
   problems; Bland picks the smallest variable index with a negative
   reduced cost, which provably terminates. *)
let entering_position t ~rule =
  let entering = ref (-1) in
  let best = ref (-.t.tol) in
  (try
     for j = 0 to t.k - 1 do
       let p = t.order.(j) in
       if Vec.get t.cells p < !best then begin
         entering := p;
         match rule with
         | `Bland -> raise Exit
         | `Dantzig -> best := Vec.get t.cells p
       end
     done
   with Exit -> ());
  !entering

(* One simplex run on the current objective row under one pivot rule.
   [fuel] is the remaining pivot budget, checked before each pivot.
   Returns [`Optimal], [`Unbounded], or [`Budget] when the fuel runs out
   with the tableau still improvable — at a basis every pivot so far kept
   feasible, so another rule can continue from it. *)
let solve_phase t ~rule ~fuel =
  let rec iterate () =
    let pos = entering_position t ~rule in
    if pos < 0 then `Optimal
    else if !fuel <= 0 then `Budget
    else begin
      (* Ratio test; Bland tie-break on smallest basic variable index. *)
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let a = cell t i pos in
        if a > t.tol then begin
          let ratio = rhs t i /. a in
          if
            ratio < !best_ratio -. t.tol
            || (Float.abs (ratio -. !best_ratio) <= t.tol
               && (!best_row < 0 || t.basis.(i) < t.basis.(!best_row)))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        decr fuel;
        pivot t ~row:!best_row ~pos;
        iterate ()
      end
    end
  in
  iterate ()

let is_artificial t v = v >= t.art_start && v < t.art_end

(* End phase 1.  Drive every artificial still basic (necessarily at value
   ~0) out of the basis on the first structural or slack variable with a
   nonzero entry in its row.  An artificial with no such entry sits on a
   redundant row, which is deleted.  The nonbasic artificials never
   enter again, so their positions are dropped: the result carries no
   artificial at all. *)
let drop_artificials t =
  for i = 0 to t.m - 1 do
    if is_artificial t t.basis.(i) then begin
      let pos = ref (-1) in
      (try
         for j = 0 to t.k - 1 do
           let p = t.order.(j) in
           if
             t.nonbasic.(p) < t.art_start
             && Float.abs (cell t i p) > t.tol
           then begin
             pos := p;
             raise Exit
           end
         done
       with Exit -> ());
      if !pos >= 0 then pivot t ~row:i ~pos:!pos
    end
  done;
  let keep_pos =
    Array.of_list
      (List.filter
         (fun p -> not (is_artificial t t.nonbasic.(p)))
         (Array.to_list t.order))
  in
  let keep_rows =
    List.filter
      (fun i -> not (is_artificial t t.basis.(i)))
      (List.init t.m Fun.id)
  in
  let m = List.length keep_rows in
  let t' =
    alloc ~tol:t.tol ~n:t.n ~art_start:t.art_start ~art_end:t.art_end
      ~nonbasic:(Array.map (fun p -> t.nonbasic.(p)) keep_pos)
      ~m ~nvars:t.nvars ~cap:(m + 1)
  in
  List.iteri
    (fun i' i ->
      t'.basis.(i') <- t.basis.(i);
      Array.iteri
        (fun p' p -> Vec.set t'.cells (row_off t' i' + p') (cell t i p))
        keep_pos;
      Vec.set t'.cells (row_off t' i' + t'.k) (rhs t i))
    keep_rows;
  t'

let extract_point t =
  let x = Vec.make t.n 0. in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if b < t.n then Vec.set x b (rhs t i)
  done;
  x

(* The optimal solution of a finished tableau, validated finite: corrupted
   arithmetic that slipped past the per-pivot guard is caught here instead
   of leaking NaN into geometry. *)
let final_solution t =
  let objective = -.rhs t (-1) in
  let point = extract_point t in
  if Float.is_finite objective && Vec.for_all Float.is_finite point then
    Ok { objective; point }
  else Error "non-finite optimal solution"

(* Install a fresh objective (phase 2) and express it in terms of the current
   basis. *)
let install_objective t cost =
  Vec.set t.cells t.k 0.;
  for p = 0 to t.k - 1 do
    let v = t.nonbasic.(p) in
    Vec.set t.cells p (if v < t.n then Vec.get cost v else 0.)
  done;
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if b < t.n && Float.abs (Vec.get cost b) > 0. then
      Vec.axpy_slice (-.Vec.get cost b) t.cells ~xpos:(row_off t i) t.cells
        ~ypos:0 ~len:(t.k + 1)
  done

(* Default pivot budget: generous for the small problems this solver sees
   (d <= 10 variables, a few dozen constraints need well under a hundred
   pivots), yet finite, so a degenerate cycle under the Dantzig rule is cut
   off and continued under Bland instead of spinning forever. *)
let default_budget ~n ~m = 1000 + (50 * (n + (3 * m)))

(* A primal simplex run: Dantzig's rule under [primary] pivots, then — if
   that runs out — Bland's rule from the same feasible basis under
   [budget] more, with no rebuild.  Bland cannot cycle, so [`Budget] here
   means the budget is truly exhausted. *)
let run_phase t ~primary ~budget =
  match solve_phase t ~rule:`Dantzig ~fuel:(ref primary) with
  | `Budget -> (
    Counter.incr c_retry_attempts;
    match solve_phase t ~rule:`Bland ~fuel:(ref budget) with
    | `Budget ->
      Counter.incr c_retry_exhausted;
      `Budget
    | (`Optimal | `Unbounded) as r -> r)
  | (`Optimal | `Unbounded) as r -> r

let internal_cost direction objective =
  match direction with
  | `Minimize -> objective
  | `Maximize -> Vec.neg objective

let finish direction outcome =
  match (direction, outcome) with
  | `Maximize, Optimal { objective; point } ->
    Optimal { objective = -.objective; point }
  | _, o -> o

(* --- Live handles: dual-simplex re-optimization ------------------------ *)

module Live = struct
  type handle = {
    tab : tableau;
    max_pivots : int option;
    mutable ok : bool;  (* false once the tableau is mid-pivot garbage *)
  }

  type t = handle

  let n h = h.tab.n

  let usable h = h.ok

  let point h = extract_point h.tab

  let budget h =
    match h.max_pivots with
    | Some b -> max 0 b
    | None -> default_budget ~n:h.tab.n ~m:h.tab.m

  (* Grow the row capacity; the stride never changes. *)
  let ensure_capacity t rows =
    let cap = Array.length t.basis in
    if rows > cap then begin
      let cap = max rows (2 * cap) in
      t.cells <- prefix t.cells ~len:(row_off t t.m) ~size:(row_off t cap);
      t.basis <- Array.init cap (fun i -> if i < t.m then t.basis.(i) else -1)
    end

  (* Fork: the live rows plus one spare row, room for the next cut. *)
  let copy h =
    let t = h.tab in
    let cap = t.m + 1 in
    {
      h with
      tab =
        {
          t with
          nonbasic = Array.copy t.nonbasic;
          order = Array.copy t.order;
          cells = prefix t.cells ~len:(row_off t t.m) ~size:(row_off t cap);
          basis = Array.init cap (fun i -> if i < t.m then t.basis.(i) else -1);
        };
    }

  (* Build a tableau over the constraint list, run phase 1 to a feasible
     basis and drop the artificials.  The [inject.lp_nan_pivot] site
     corrupts the fresh tableau, which the corruption scan turns into
     [`Failed (Numerical _)]. *)
  let create ?(tol = 1e-9) ?max_pivots ~n constraints =
    check_inputs ~n (Vec.make n 0.) constraints;
    let budget =
      match max_pivots with
      | Some b -> max 0 b
      | None -> default_budget ~n ~m:(List.length constraints)
    in
    let fail err =
      Counter.incr c_failures;
      `Failed err
    in
    match
      let t = build ~tol ~n constraints in
      if Fault.fire "inject.lp_nan_pivot" then begin
        Vec.set t.cells 0 Float.nan;
        if tableau_corrupt t then raise (Bad_pivot "non-finite tableau entry")
      end;
      match run_phase t ~primary:budget ~budget with
      | `Optimal ->
        (* The objective row's last cell holds the negated phase-1
           objective. *)
        if -.rhs t (-1) > 1e-7 then `Infeasible
        else begin
          let t = drop_artificials t in
          install_objective t (Vec.make n 0.);
          `Feasible t
        end
      | (`Budget | `Unbounded) as r -> r
    with
    | exception Bad_pivot detail -> fail (Numerical { detail })
    | `Budget -> fail (Iteration_limit { budget })
    | `Unbounded | `Infeasible ->
      (* The phase-1 objective (a sum of artificials, each bounded below
         by 0) cannot be unbounded; treat as numerically infeasible. *)
      `Infeasible
    | `Feasible t -> `Feasible { tab = t; max_pivots; ok = true }

  (* The primary budget of one [add_cut] / [optimize] run: the armed
     [inject.lp_iteration_cap] site collapses it to zero. *)
  let primary_budget h =
    if Fault.fire "inject.lp_iteration_cap" then 0 else budget h

  (* Append one row in <= form with a fresh basic slack, re-expressed in
     the current basis: subtracting each basic structural variable's row
     leaves the slack's value at rhs - coeffs . x̄. *)
  let append_le_row t coeffs rhs_value =
    ensure_capacity t (t.m + 1);
    let o = row_off t t.m in
    for p = 0 to t.k - 1 do
      let v = t.nonbasic.(p) in
      Vec.set t.cells (o + p) (if v < t.n then Vec.get coeffs v else 0.)
    done;
    Vec.set t.cells (o + t.k) rhs_value;
    for i = 0 to t.m - 1 do
      let b = t.basis.(i) in
      if b < t.n && Float.abs (Vec.get coeffs b) > 0. then
        Vec.axpy_slice (-.Vec.get coeffs b) t.cells ~xpos:(row_off t i)
          t.cells ~ypos:o ~len:(t.k + 1)
    done;
    t.basis.(t.m) <- t.nvars;
    t.nvars <- t.nvars + 1;
    t.m <- t.m + 1

  (* Dual simplex: while some row is primal infeasible, pivot it out on the
     position minimizing |reduced cost / element| over negative elements —
     reduced costs stay non-negative (dual feasible), the basis walks back
     to primal feasibility.  A row with no negative element certifies
     infeasibility.  Deterministic tie-breaks: most negative rhs then
     lowest row index; lowest variable index on ratio ties. *)
  let dual_restore t ~fuel =
    let rec iterate pivots =
      (* Leaving row: most negative rhs. *)
      let row = ref (-1) in
      let worst = ref (-.t.tol) in
      for i = 0 to t.m - 1 do
        if rhs t i < !worst then begin
          row := i;
          worst := rhs t i
        end
      done;
      if !row < 0 then `Feasible pivots
      else if !fuel <= 0 then `Budget
      else begin
        let pos = ref (-1) in
        let best_ratio = ref infinity in
        for j = 0 to t.k - 1 do
          let p = t.order.(j) in
          let a = cell t !row p in
          if a < -.t.tol then begin
            let ratio = Vec.get t.cells p /. -.a in
            if ratio < !best_ratio -. t.tol then begin
              pos := p;
              best_ratio := ratio
            end
          end
        done;
        if !pos < 0 then `Infeasible
        else begin
          decr fuel;
          pivot t ~row:!row ~pos:!pos;
          iterate (pivots + 1)
        end
      end
    in
    iterate 0

  let add_cut h (c : constr) =
    if not h.ok then `Failed (Numerical { detail = "unusable live tableau" })
    else if Vec.dim c.coeffs <> h.tab.n then
      invalid_arg "Lp.Live.add_cut: constraint coefficient length <> n"
    else begin
      Counter.incr c_dual_reopt;
      let pivots_before = Counter.value c_dual_pivots in
      let t = h.tab in
      (* Express the cut in <= form; an equality contributes both sides. *)
      (match c.relation with
      | Le -> append_le_row t c.coeffs c.rhs
      | Ge -> append_le_row t (Vec.neg c.coeffs) (-.c.rhs)
      | Eq ->
        append_le_row t c.coeffs c.rhs;
        append_le_row t (Vec.neg c.coeffs) (-.c.rhs));
      let fuel = ref (primary_budget h) in
      let result =
        match dual_restore t ~fuel with
        | `Feasible 0 -> `Sat
        | `Feasible k -> `Reopt k
        | `Infeasible ->
          (* Exact verdict: a primal-infeasible row with no negative
             entry proves the extended system empty.  The tableau is
             abandoned mid-restore. *)
          h.ok <- false;
          `Infeasible
        | `Budget ->
          h.ok <- false;
          `Failed (Iteration_limit { budget = budget h })
        | exception Bad_pivot detail ->
          h.ok <- false;
          `Failed (Numerical { detail })
      in
      Histogram.observe h_pivots_per_reopt
        (Counter.value c_dual_pivots -. pivots_before);
      result
    end

  let optimize h ~objective direction =
    if not h.ok then Failed (Numerical { detail = "unusable live tableau" })
    else if Vec.dim objective <> h.tab.n then
      invalid_arg "Lp.Live.optimize: objective length <> n"
    else begin
      Counter.incr c_dual_reopt;
      let pivots_before = Counter.value c_dual_pivots in
      let t = h.tab in
      let fail err =
        h.ok <- false;
        Counter.incr c_failures;
        Failed err
      in
      let result =
        match
          install_objective t (internal_cost direction objective);
          run_phase t ~primary:(primary_budget h) ~budget:(budget h)
        with
        | `Optimal -> (
          match final_solution t with
          | Ok s -> finish direction (Optimal s)
          | Error detail -> fail (Numerical { detail }))
        | `Unbounded ->
          h.ok <- false;
          finish direction Unbounded
        | `Budget -> fail (Iteration_limit { budget = budget h })
        | exception Bad_pivot detail -> fail (Numerical { detail })
      in
      Histogram.observe h_pivots_per_reopt
        (Counter.value c_dual_pivots -. pivots_before);
      result
    end
end

let solve ?tol ?max_pivots ~n ~objective direction constraints =
  check_inputs ~n objective constraints;
  Counter.incr c_solves;
  match Live.create ?tol ?max_pivots ~n constraints with
  | `Feasible h -> Live.optimize h ~objective direction
  | `Infeasible -> Infeasible
  | `Failed err -> Failed err
