(** A dense dual-simplex linear-programming engine for small problems.

    This is the workhorse behind every feasible-utility-region operation in
    the reproduction: emptiness checks after hyperplane updates (Section V),
    the Lemma 2 pruning test, and the width/diameter metrics of the MinR and
    MinD heuristics.  Problems here are small — [d <= 10] variables and a few
    dozen constraints — so a dense tableau is both simple and fast.  The
    tableau is a dictionary: each row stores only the nonbasic columns
    plus its rhs ([d] cells and one for a region's tableau, whatever the
    cut count), all rows in one flat row-major buffer, and each pivot
    streams them through the {!Indq_linalg.Vec.axpy_slice} /
    [scale_slice] kernels.  Every pivot rule breaks ties by variable
    index, so the dictionary makes the decisions a full tableau would;
    its floats differ in round-off only (a full tableau carries residues
    in its basic columns where a dictionary keeps exact unit vectors).

    All structural variables are constrained to be non-negative ([x >= 0]),
    which matches utility vectors [u] in the non-negative orthant.  General
    constraints of the three relations [<=], [>=], [=] are supported via
    slack, surplus and artificial variables.

    {b One engine.}  The interactive loop refines a region by adding
    {i one} halfspace at a time — the textbook dual-simplex case.  Every LP
    runs on a {!Live} tableau: {!Live.create} runs phase 1 once to a
    feasible basis, {!Live.add_cut} appends a new row, re-expresses it in
    the current basis and restores primal feasibility by dual pivots (often
    zero, when the current vertex already satisfies the cut), and
    {!Live.optimize} re-optimizes any new objective from the current
    feasible basis without ever re-running phase 1.  {!solve} is the
    one-shot composition of the two.  Every pivot counts in
    ["lp.dual_pivots"]; re-optimizations count in ["lp.dual_reopt"] and the
    ["lp.pivots_per_reopt"] histogram, one-shot solves in ["lp.solves"].

    {b Failure model.}  Every primal run ({!Live.create}'s phase 1,
    {!Live.optimize}) works under a hard pivot budget with the fast
    Dantzig entering rule.  The budget is checked before each pivot, so a
    run that exhausts it (a degenerate cycle, or the armed
    [inject.lp_iteration_cap] fault) stops at a feasible basis and
    continues from it under Bland's anti-cycling rule, which provably
    terminates (counted in ["retry.attempts"]).  A run that cannot finish
    even then — budget exhausted again (["retry.exhausted"]), or a
    non-finite value in the tableau (guarded at every pivot, at the final
    solution, and plantable via [inject.lp_nan_pivot]) — returns a typed
    failure (counted in ["lp.failures"]) instead of looping or raising.
    {!Live.add_cut}'s dual run has no continuation: its typed failure is
    recovered by the caller rebuilding the tableau with {!Live.create}. *)

module Vec := Indq_linalg.Vec

type relation = Le | Ge | Eq

type constr = {
  coeffs : Vec.t;  (** one coefficient per structural variable *)
  relation : relation;
  rhs : float;
}
(** The linear constraint [coeffs . x  <relation>  rhs]. *)

type solution = {
  objective : float;  (** optimal objective value *)
  point : Vec.t;  (** an optimal assignment of the structural variables *)
}

type error =
  | Iteration_limit of { budget : int }
      (** the pivot budget ran out under both the Dantzig and the Bland
          entering rule *)
  | Numerical of { detail : string }
      (** a non-finite value surfaced in the tableau or the optimal
          solution *)

type outcome =
  | Optimal of solution
  | Infeasible  (** no [x >= 0] satisfies the constraints *)
  | Unbounded  (** the objective is unbounded over the feasible set *)
  | Failed of error
      (** the solver could not reach a verdict; see {!error}.  Callers must
          treat the region as {i unknown}, never as empty or feasible. *)

val constr : Vec.t -> relation -> float -> constr
(** Convenience constructor. *)

val error_message : error -> string
(** Human-readable rendering of a solver failure. *)

val solve :
  ?tol:float ->
  ?max_pivots:int ->
  n:int ->
  objective:Vec.t ->
  [ `Minimize | `Maximize ] ->
  constr list ->
  outcome
(** [solve ~n ~objective dir constraints] optimizes
    [objective . x  s.t.  constraints, x >= 0] from scratch: a one-shot
    {!Live.create} followed by {!Live.optimize}.  [tol] (default 1e-9) is
    the pivoting tolerance; [?max_pivots] overrides the pivot budget of
    each run (the default is ample for this solver's problem sizes).  An
    exhausted budget triggers the Bland's-rule continuation described in
    the module header, and {!Failed} only after both rules exhaust it.
    Raises [Invalid_argument] if any coefficient vector does not have
    length [n].  Counted in ["lp.solves"]. *)

(** A live simplex tableau kept across one-halfspace refinements.

    The handle owns a tableau standing at a {i primal-feasible} basis of
    its constraint list (optimal for the last objective it optimized).
    {!add_cut} extends the list by one constraint via the dual simplex;
    {!copy} forks the tableau so one parent setup is reused across many
    candidate children (the Lemma 2 batch shape); {!optimize} answers any
    number of objectives over the same list from the standing basis.

    Handles are single-domain mutable state and — like every cache in the
    incremental engine — confined behind {!Indq_geom.Polytope} (lint rule
    IND005).  Values produced by {!optimize} depend on the pivot path
    that built the tableau: two tableaux over the same constraints agree
    to float round-off but are {b not} guaranteed bit-identical (a
    different path may land on a different vertex of a degenerate optimal
    face), so callers must route them into verdict-grade decisions or
    margin-guarded hints only, never into strict value comparisons. *)
module Live : sig
  type t

  val create :
    ?tol:float ->
    ?max_pivots:int ->
    n:int ->
    constr list ->
    [ `Feasible of t | `Infeasible | `Failed of error ]
  (** Build a tableau over the constraint list and run phase 1 to a
      feasible basis (Dantzig with the usual budget, continued under Bland
      on exhaustion).  [`Feasible] hands back the live handle; [`Failed]
      counts in ["lp.failures"]. *)

  val copy : t -> t
  (** Fork the tableau: the copy refines independently.  It copies the
      live rows plus one spare row for the next cut, O(rows·d). *)

  val n : t -> int
  (** Number of structural variables. *)

  val usable : t -> bool
  (** [false] once an operation failed or reported [Unbounded]: the
      tableau is mid-pivot and every later operation answers [`Failed] /
      {!Failed} without touching it.  Callers rebuild via {!create}. *)

  val point : t -> Vec.t
  (** The basic solution at the standing basis — a feasible point of the
      constraint list.  Read-only: the tableau is not touched, so forks of
      this handle pivot identically whether or not [point] was called. *)

  val add_cut : t -> constr -> [ `Sat | `Reopt of int | `Infeasible | `Failed of error ]
  (** Append one constraint and restore primal feasibility by dual-simplex
      pivots on the appended row ([Eq] appends two rows).  [`Sat]: the
      standing vertex already satisfies the cut — zero pivots, and the
      region is certified non-empty.  [`Reopt k]: feasibility restored
      after [k] dual pivots (region non-empty).  [`Infeasible]: the dual
      ratio test certified the extended system infeasible — the verdict is
      exact and final, and the handle becomes unusable.  [`Failed]: the
      dual run exhausted its budget (no Bland continuation here) or hit a
      non-finite value; the handle becomes unusable and the caller
      rebuilds.  Counted in ["lp.dual_reopt"] / ["lp.dual_pivots"]. *)

  val optimize :
    t -> objective:Vec.t -> [ `Minimize | `Maximize ] -> outcome
  (** Re-optimize a fresh objective from the standing feasible basis
      (phase 2 only, no artificials ever re-enter).  On {!Optimal} the
      handle stands at that optimum, ready for the next {!add_cut} /
      {!optimize}.  Dantzig's rule, continued under Bland's on budget
      exhaustion.  Counted in ["lp.dual_reopt"]; pivots land in
      ["lp.dual_pivots"] and the ["lp.pivots_per_reopt"] histogram. *)
end
