(** Squeeze-u2 (Algorithm 3): artificial tuples with a δ-erring user.

    The structure mirrors {!Squeeze_u} with three changes that make the
    inference sound when the user may pick any option
    δ-indistinguishable from their true favorite (Section VI-A):

    - phase 1 displays the {i unit} vectors [e_i], and the discovered [i*]
      may undershoot the true maximum by a [(1+delta)^ceil((d-1)/(s-1))]
      factor, so every other upper bound starts at that value rather than 1;
    - the ladder updates use the δ-robust bounds of Theorem 3:
      [L_i >= (chi_{c-1} - delta * sum_{j>=c} chi_j) / (1 + c delta)] and
      [H_i <= (chi_c + delta * sum_{j>=c} chi_j) / (1 - c delta)]
      (the [H] update is skipped in the degenerate case [1 - c delta <= 0]);
    - bounds only ever tighten (max/min with the previous value), so the
      interval stalls once the δ-noise floor of Theorem 3 is reached.

    Guarantee (Theorem 3): an [O(d delta s)]-approximation of [I]. *)

type result = {
  output : Indq_dataset.Dataset.t;
  lo : Indq_linalg.Vec.t;
  hi : Indq_linalg.Vec.t;
  i_star : int;
  questions_used : int;
}

val run :
  ?exact_prune:bool ->
  ?source_n:int ->
  data:Indq_dataset.Dataset.t ->
  s:int ->
  q:int ->
  eps:float ->
  delta:float ->
  oracle:Indq_user.Oracle.t ->
  unit ->
  result
(** Raises [Invalid_argument] when [s < 2], [q < 0], [eps <= 0],
    [delta < 0] or the dataset is empty.  [delta = 0.] reduces exactly to
    the Algorithm 1 updates (with unit-vector phase-1 points).  [source_n]
    skips Line 1, as in {!Squeeze_u.run}. *)

val robust_bounds :
  delta:float -> s:int -> chi:float array -> c:int -> float * float
(** The Theorem 3 interval implied by 1-based choice [c]
    ([(new_lo, new_hi)], before intersecting with the previous bounds;
    [new_hi = infinity] when [1 - c delta <= 0]).  Exposed for tests. *)
