(** Squeeze-u (Algorithm 1): the provable-bound algorithm with artificial
    tuples and an error-free user.

    Phase 1 discovers [i* = argmax_i u_i] with [ceil((d-1)/(s-1))] questions
    built from the data ranges ([e_i] has the midpoint of attribute [i]'s
    range in position [i] and the minima elsewhere).  Phase 2 repeatedly
    shows the [chi]-ladder points of Line 14, shrinking one coordinate
    bound [H_i - L_i] by a factor of [s] per question (Lemma 1).  Finally
    the learned box [L <= u <= H] prunes the candidates (Section IV-A).

    Guarantees (Theorem 2): the output is an
    [O(d / s^((q-1)/(d-1)))]-approximation of [I].  The paper's listing
    initializes every upper bound to 1, which is valid only when all
    attributes span equal ranges; this implementation instead uses the
    bound the phase-1 tournament actually proves,
    [u_j / u_{i*} <= spread(i_star) / spread(j)], so the no-false-negative
    contract holds on arbitrarily normalized inputs (see DESIGN.md,
    "Design notes").  On equal-range data the two coincide. *)

type result = {
  output : Indq_dataset.Dataset.t;
  lo : Indq_linalg.Vec.t;
      (** learned lower bounds [L] (relative to [u_{i*}] = 1) *)
  hi : Indq_linalg.Vec.t;  (** learned upper bounds [H] *)
  i_star : int;  (** discovered largest-coefficient attribute *)
  questions_used : int;
}

val run :
  ?exact_prune:bool ->
  ?source_n:int ->
  data:Indq_dataset.Dataset.t ->
  s:int ->
  q:int ->
  eps:float ->
  oracle:Indq_user.Oracle.t ->
  unit ->
  result
(** [run ~data ~s ~q ~eps ~oracle ()] asks at most [q] questions of [s]
    options each.  [exact_prune] (default false) switches the final filter
    from the O(n) heuristic to the exact box-corner test.  [source_n]
    marks [data] as already (1+eps)-filtered (see
    {!Pruning.skyline_stage}): Line 1 is skipped.

    Raises [Invalid_argument] when [s < 2], [q < 0], [eps <= 0] or the
    dataset is empty. *)

val chi_ladder : lo:float -> hi:float -> s:int -> float array
(** The display thresholds [chi_0 .. chi_s] of Line 13 (exposed for
    tests). *)

val ladder_points :
  d:int ->
  s:int ->
  i:int ->
  i_star:int ->
  chi:float array ->
  Indq_linalg.Vec.t array
(** The artificial display tuples [p_1 .. p_s] of Line 14 (exposed for
    tests). *)
