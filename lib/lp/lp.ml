module Counter = Indq_obs.Counter
module Histogram = Indq_obs.Histogram
module Fault = Indq_fault.Fault
module Vec = Indq_linalg.Vec
module Mat = Indq_linalg.Mat

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

(* Internal mutable tableau for the simplex.

   Columns: [0, n) structural vars, [n, art_start) slack/surplus vars,
   [art_start, art_end) artificial vars, [art_end, ncols) slacks of rows
   appended later by [Live.add_cut].  The live area is rows [0, m) and
   columns [0, ncols) of a capacity grid: [data] rows keep every cell
   beyond [ncols] at 0 and [obj] likewise, so whole-row kernel sweeps are
   sound and appending a column is O(1) amortized.  Each row i carries its
   right-hand side in [rhs.(i)]; the variable basic in row i is
   [basis.(i)].  The objective row [obj] holds reduced costs for the
   current basis and [obj_value] the negated objective so far (standard
   tableau bookkeeping). *)
type tableau = {
  n : int;  (* structural variables *)
  art_start : int;  (* first artificial column *)
  art_end : int;  (* one past the last artificial column *)
  mutable m : int;  (* live rows *)
  mutable ncols : int;  (* live columns *)
  mutable data : Mat.t;  (* capacity grid; live rows/cols as above *)
  mutable rhs : Vec.t;  (* capacity [Mat.rows data] *)
  mutable basis : int array;  (* capacity [Mat.rows data] *)
  mutable obj : Vec.t;  (* capacity [Mat.cols data] *)
  mutable obj_value : float;
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

(* Build the phase-1 tableau.  Every row is first normalized to rhs >= 0.
   [reserve] leaves headroom in both dimensions for rows a [Live] handle
   appends later. *)
let build ~tol ~n ~reserve constraints =
  let cs = Array.of_list constraints in
  let m = Array.length cs in
  (* Count extra columns. *)
  let slack_count =
    Array.fold_left
      (fun acc (c : constr) ->
        match c.relation with Le | Ge -> acc + 1 | Eq -> acc)
      0 cs
  in
  (* Normalize rows so rhs >= 0, which may flip the relation.  A >= row
     with rhs exactly 0 is rewritten as a <= row (negated): its slack can
     start basic at 0, avoiding an artificial variable — the common case
     for preference-hyperplane cuts [(a - b) . v >= 0]. *)
  let normalized =
    Array.map
      (fun (c : constr) ->
        if c.rhs < 0. || (Float.equal c.rhs 0. && c.relation = Ge) then
          let flipped =
            match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq
          in
          { coeffs = Vec.neg c.coeffs; relation = flipped; rhs = -.c.rhs }
        else c)
      cs
  in
  (* A <= row with rhs >= 0 starts with its slack basic; >= and = rows need
     an artificial.  Count artificials. *)
  let art_count =
    Array.fold_left
      (fun acc (c : constr) ->
        match c.relation with Le -> acc | Ge | Eq -> acc + 1)
      0 normalized
  in
  let art_start = n + slack_count in
  let art_end = art_start + art_count in
  let cap_rows = m + reserve and cap_cols = art_end + reserve in
  let data = Mat.create (max cap_rows 1) (max cap_cols 1) in
  let rhs = Vec.make (max cap_rows 1) 0. in
  let basis = Array.make (max cap_rows 1) (-1) in
  let next_slack = ref n in
  let next_art = ref art_start in
  Array.iteri
    (fun i (c : constr) ->
      let row = Mat.row_view data i in
      Vec.blit ~src:c.coeffs ~dst:(Vec.sub_view row ~pos:0 ~len:n);
      Vec.set rhs i c.rhs;
      match c.relation with
      | Le ->
        Vec.set row !next_slack 1.;
        basis.(i) <- !next_slack;
        incr next_slack
      | Ge ->
        Vec.set row !next_slack (-1.);
        incr next_slack;
        Vec.set row !next_art 1.;
        basis.(i) <- !next_art;
        incr next_art
      | Eq ->
        Vec.set row !next_art 1.;
        basis.(i) <- !next_art;
        incr next_art)
    normalized;
  (* Phase-1 objective: minimize the sum of artificials.  Express its reduced
     costs for the starting basis by subtracting each artificial's row. *)
  let obj = Vec.make (max cap_cols 1) 0. in
  for j = art_start to art_end - 1 do
    Vec.set obj j 1.
  done;
  let obj_value = ref 0. in
  for i = 0 to m - 1 do
    if basis.(i) >= art_start && basis.(i) < art_end then begin
      Vec.axpy_ip (-1.) (Mat.row_view data i) obj;
      obj_value := !obj_value -. Vec.get rhs i
    end
  done;
  { n; art_start; art_end; m; ncols = art_end; data; rhs; basis; obj;
    obj_value = !obj_value; tol }

let tableau_corrupt t =
  let bad x = not (Float.is_finite x) in
  let live_bad v len =
    let hit = ref false in
    for i = 0 to len - 1 do
      if bad (Vec.get v i) then hit := true
    done;
    !hit
  in
  let rows_bad = ref false in
  for i = 0 to t.m - 1 do
    if live_bad (Mat.row_view t.data i) t.ncols then rows_bad := true
  done;
  live_bad t.rhs t.m || live_bad t.obj t.ncols || !rows_bad

let pivot t ~row ~col =
  Counter.incr c_dual_pivots;
  let pivot_value = Mat.get t.data row col in
  if
    not
      ((Float.is_finite pivot_value)
      [@indq.alloc_ok
        "allocation-free by inspection (x -. x = 0. under the hood) but \
         outside the annotated surface"])
  then
    (raise
       (Bad_pivot
          (Printf.sprintf "non-finite pivot element in row %d, column %d" row
             col))
    [@indq.alloc_ok
      "cold failure path: the exception payload only materializes when \
       the tableau is already corrupt"]);
  let r =
    (Mat.row_view t.data row
    [@indq.alloc_ok
      "one O(1) view descriptor per pivot, amortized over the O(m*n) \
       row sweep it enables; the sweep itself stays in-place"])
  in
  Vec.scale_ip (1. /. pivot_value) r;
  Vec.set t.rhs row (Vec.get t.rhs row /. pivot_value);
  (* Cells beyond [ncols] are zero in every row and in [obj], so the
     full-capacity kernel sweeps below leave them zero. *)
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let factor = Mat.get t.data i col in
      if Float.abs factor > 0. then begin
        Vec.axpy_ip (-.factor) r
          (Mat.row_view t.data i
          [@indq.alloc_ok
            "one O(1) view descriptor per eliminated row, amortized over \
             the O(n) axpy it feeds"]);
        Vec.set t.rhs i (Vec.get t.rhs i -. (factor *. Vec.get t.rhs row))
      end
    end
  done;
  let factor = Vec.get t.obj col in
  if Float.abs factor > 0. then begin
    Vec.axpy_ip (-.factor) r t.obj;
    ((t.obj_value <- t.obj_value -. (factor *. Vec.get t.rhs row))
    [@indq.alloc_ok
      "one boxed float per pivot: obj_value lives in a mixed record, so \
       the store boxes; bounded by the pivot count, not the row sweep"])
  end;
  t.basis.(row) <- col
[@@indq.alloc_free
  "dual-simplex pivot kernel: row normalization and elimination run as \
   in-place Vec kernels over the flat tableau; the audited exceptions \
   are the O(1)-per-pivot view descriptors and the obj_value box"]

(* Columns an entering pivot may use: artificials are frozen once phase 1
   ends, everything else — structural, slack, appended slack — is fair. *)
let col_allowed t j = j < t.art_start || j >= t.art_end

(* Entering column under the requested pivot rule, or -1 at optimality.
   Dantzig picks the most negative reduced cost (smallest index on exact
   ties) — fast, but can cycle on degenerate problems; Bland picks the
   smallest index with a negative reduced cost, which provably terminates. *)
let entering_column t ~rule ~allowed =
  match rule with
  | `Bland ->
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed j && Vec.get t.obj j < -.t.tol then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    !entering
  | `Dantzig ->
    let entering = ref (-1) in
    let best = ref (-.t.tol) in
    for j = 0 to t.ncols - 1 do
      if allowed j && Vec.get t.obj j < !best then begin
        entering := j;
        best := Vec.get t.obj j
      end
    done;
    !entering

(* One simplex run on the current objective row under one pivot rule.
   [allowed j] restricts the entering columns (used to freeze artificials
   in phase 2); [fuel] is the remaining pivot budget, checked before each
   pivot.  Returns [`Optimal], [`Unbounded], or [`Budget] when the fuel
   runs out with the tableau still improvable — at a basis every pivot so
   far kept feasible, so another rule can continue from it. *)
let solve_phase t ~rule ~allowed ~fuel =
  let rec iterate () =
    let col = entering_column t ~rule ~allowed in
    if col < 0 then `Optimal
    else if !fuel <= 0 then `Budget
    else begin
      (* Ratio test; Bland tie-break on smallest basic variable index. *)
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let a = Mat.get t.data i col in
        if a > t.tol then begin
          let ratio = Vec.get t.rhs i /. a in
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
        pivot t ~row:!best_row ~col;
        iterate ()
      end
    end
  in
  iterate ()

(* Drive any artificial variable that is still basic (necessarily at value
   ~0) out of the basis, or mark its row as redundant by leaving it — the row
   then has all-zero structural coefficients and never constrains phase 2
   because artificial columns are frozen. *)
let expel_artificials t =
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= t.art_start && t.basis.(i) < t.art_end then begin
      let col = ref (-1) in
      (try
         for j = 0 to t.art_start - 1 do
           if Float.abs (Mat.get t.data i j) > t.tol then begin
             col := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !col >= 0 then pivot t ~row:i ~col:!col
    end
  done

let extract_point t =
  let x = Vec.make t.n 0. in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if b < t.n then Vec.set x b (Vec.get t.rhs i)
  done;
  x

(* The optimal solution of a finished tableau, validated finite: corrupted
   arithmetic that slipped past the per-pivot guard is caught here instead
   of leaking NaN into geometry. *)
let final_solution t =
  let objective = -.t.obj_value in
  let point = extract_point t in
  if Float.is_finite objective && Vec.for_all Float.is_finite point then
    Ok { objective; point }
  else Error "non-finite optimal solution"

(* Install a fresh objective (phase 2) and express it in terms of the current
   basis. *)
let install_objective t cost =
  let obj = Vec.make (Mat.cols t.data) 0. in
  Vec.blit ~src:cost ~dst:(Vec.sub_view obj ~pos:0 ~len:t.n);
  let obj_value = ref 0. in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if Float.abs (Vec.get obj b) > 0. then begin
      let factor = Vec.get obj b in
      Vec.axpy_ip (-.factor) (Mat.row_view t.data i) obj;
      obj_value := !obj_value -. (factor *. Vec.get t.rhs i)
    end
  done;
  t.obj <- obj;
  t.obj_value <- !obj_value

(* Default pivot budget: generous for the small problems this solver sees
   (d <= 10 variables, a few dozen constraints need well under a hundred
   pivots), yet finite, so a degenerate cycle under the Dantzig rule is cut
   off and continued under Bland instead of spinning forever. *)
let default_budget ~n ~m = 1000 + (50 * (n + (3 * m)))

(* A primal simplex run: Dantzig's rule under [primary] pivots, then — if
   that runs out — Bland's rule from the same feasible basis under
   [budget] more, with no rebuild.  Bland cannot cycle, so [`Budget] here
   means the budget is truly exhausted. *)
let run_phase t ~allowed ~primary ~budget =
  match solve_phase t ~rule:`Dantzig ~allowed ~fuel:(ref primary) with
  | `Budget -> (
    Counter.incr c_retry_attempts;
    match solve_phase t ~rule:`Bland ~allowed ~fuel:(ref budget) with
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

  (* Grow the capacity grid.  Fresh cells are zero, preserving the
     "dead area is all zeros" invariant the pivot sweeps rely on. *)
  let ensure_capacity t ~rows ~cols =
    let cap_rows = Mat.rows t.data and cap_cols = Mat.cols t.data in
    if rows > cap_rows || cols > cap_cols then begin
      let new_rows = if rows > cap_rows then max rows (2 * cap_rows) else cap_rows in
      let new_cols = if cols > cap_cols then max cols (2 * cap_cols) else cap_cols in
      let data = Mat.create new_rows new_cols in
      for i = 0 to t.m - 1 do
        Vec.blit
          ~src:(Mat.row_view t.data i)
          ~dst:(Vec.sub_view (Mat.row_view data i) ~pos:0 ~len:cap_cols)
      done;
      t.data <- data;
      let rhs = Vec.make new_rows 0. in
      Vec.blit ~src:t.rhs ~dst:(Vec.sub_view rhs ~pos:0 ~len:cap_rows);
      t.rhs <- rhs;
      let basis = Array.make new_rows (-1) in
      Array.blit t.basis 0 basis 0 cap_rows;
      t.basis <- basis;
      let obj = Vec.make new_cols 0. in
      Vec.blit ~src:t.obj ~dst:(Vec.sub_view obj ~pos:0 ~len:cap_cols);
      t.obj <- obj
    end

  let copy h =
    let t = h.tab in
    {
      h with
      tab =
        {
          t with
          data = Mat.copy t.data;
          rhs = Vec.copy t.rhs;
          basis = Array.copy t.basis;
          obj = Vec.copy t.obj;
        };
    }

  (* Build a tableau over the constraint list and run phase 1 to a
     feasible basis, leaving headroom for the cuts a live handle exists to
     absorb.  The [inject.lp_nan_pivot] site corrupts the fresh tableau,
     which the corruption scan turns into [`Failed (Numerical _)]. *)
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
      let t = build ~tol ~n ~reserve:8 constraints in
      if Fault.fire "inject.lp_nan_pivot" then begin
        Vec.set t.obj 0 Float.nan;
        if tableau_corrupt t then raise (Bad_pivot "non-finite tableau entry")
      end;
      (t, run_phase t ~allowed:(fun _ -> true) ~primary:budget ~budget)
    with
    | exception Bad_pivot detail -> fail (Numerical { detail })
    | _, `Budget -> fail (Iteration_limit { budget })
    | _, `Unbounded ->
      (* The phase-1 objective (a sum of artificials, each bounded below
         by 0) cannot be unbounded; treat as numerically infeasible. *)
      `Infeasible
    | t, `Optimal ->
      (* obj_value holds the negated phase-1 objective. *)
      if -.t.obj_value > 1e-7 then `Infeasible
      else begin
        expel_artificials t;
        install_objective t (Vec.make n 0.);
        `Feasible { tab = t; max_pivots; ok = true }
      end

  (* The primary budget of one [add_cut] / [optimize] run: the armed
     [inject.lp_iteration_cap] site collapses it to zero. *)
  let primary_budget h =
    if Fault.fire "inject.lp_iteration_cap" then 0 else budget h

  (* Append one row in <= form with a fresh basic slack, re-expressed in
     the current basis.  Returns the new row's index. *)
  let append_le_row t coeffs rhs =
    ensure_capacity t ~rows:(t.m + 1) ~cols:(t.ncols + 1);
    let row_idx = t.m and slack_col = t.ncols in
    let row = Mat.row_view t.data row_idx in
    Vec.fill row 0.;
    Vec.blit ~src:coeffs ~dst:(Vec.sub_view row ~pos:0 ~len:t.n);
    Vec.set row slack_col 1.;
    Vec.set t.rhs row_idx rhs;
    t.basis.(row_idx) <- slack_col;
    t.m <- t.m + 1;
    t.ncols <- t.ncols + 1;
    (* Eliminate the current basic columns from the fresh row so the
       tableau stays in canonical form; the slack picks up the row's
       infeasibility (its value becomes rhs - coeffs . x̄). *)
    for i = 0 to t.m - 2 do
      let b = t.basis.(i) in
      let f = Vec.get row b in
      if Float.abs f > 0. then begin
        Vec.axpy_ip (-.f) (Mat.row_view t.data i) row;
        Vec.set t.rhs row_idx
          (Vec.get t.rhs row_idx -. (f *. Vec.get t.rhs i))
      end
    done;
    row_idx

  (* Dual simplex: while some row is primal infeasible, pivot it out on the
     column minimizing |reduced cost / element| over negative elements —
     reduced costs stay non-negative (dual feasible), the basis walks back
     to primal feasibility.  A row with no negative element certifies
     infeasibility.  Deterministic tie-breaks: most negative rhs then
     lowest row index; lowest column index on ratio ties. *)
  let dual_restore t ~fuel =
    let rec iterate pivots =
      (* Leaving row: most negative rhs. *)
      let row = ref (-1) in
      let worst = ref (-.t.tol) in
      for i = 0 to t.m - 1 do
        if Vec.get t.rhs i < !worst then begin
          row := i;
          worst := Vec.get t.rhs i
        end
      done;
      if !row < 0 then `Feasible pivots
      else if !fuel <= 0 then `Budget
      else begin
        let r = Mat.row_view t.data !row in
        let col = ref (-1) in
        let best_ratio = ref infinity in
        for j = 0 to t.ncols - 1 do
          if col_allowed t j then begin
            let a = Vec.get r j in
            if a < -.t.tol then begin
              let ratio = Vec.get t.obj j /. -.a in
              if ratio < !best_ratio -. t.tol then begin
                col := j;
                best_ratio := ratio
              end
            end
          end
        done;
        if !col < 0 then `Infeasible
        else begin
          decr fuel;
          pivot t ~row:!row ~col:!col;
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
      | Le -> ignore (append_le_row t c.coeffs c.rhs)
      | Ge -> ignore (append_le_row t (Vec.neg c.coeffs) (-.c.rhs))
      | Eq ->
        ignore (append_le_row t c.coeffs c.rhs);
        ignore (append_le_row t (Vec.neg c.coeffs) (-.c.rhs)));
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
          run_phase t ~allowed:(col_allowed t) ~primary:(primary_budget h)
            ~budget:(budget h)
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
