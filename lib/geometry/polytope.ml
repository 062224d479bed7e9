module Vec = Indq_linalg.Vec
module Lp = Indq_lp.Lp
module Rng = Indq_util.Rng
module Floatx = Indq_util.Floatx
module Counter = Indq_obs.Counter

let c_cache_hits = Counter.make "poly.cache_hits"

(* Frozen-tableau rebuilds after a failed replay step: from-scratch
   [Lp.Live.create] runs, the same event [Lp.solve] counts. *)
let c_rebuilds = Counter.make "lp.solves"

exception Solver_error of Lp.error
(* The LP solver returned [Lp.Failed] where a verdict was required (an
   extreme value, a profile, a width).  The region's geometry is unknown —
   callers either degrade (score the display set as unusable, keep the
   previous region) or let the typed error surface.  [is_empty] handles
   [Lp.Failed] itself and never raises this. *)

let () =
  Printexc.register_printer (function
    | Solver_error e -> Some ("Indq_geom.Polytope.Solver_error: " ^ Lp.error_message e)
    | _ -> None)

(* The central determinism discipline of this module: every LP-derived
   value is a *pure function of the cut list* (plus static query
   parameters).  Each region owns a canonical "frozen" dual-simplex
   tableau obtained by replaying its cuts oldest-to-newest through
   [Lp.Live.add_cut] under the zero objective; every value query forks
   that tableau and optimizes on the fork, so the pivot sequence — and
   hence every float — depends only on (cuts, query), never on which
   queries ran before.  The frozen tableau and the query results are
   memoized per node; a memo hit returns the bits a recomputation would
   produce. *)

(* Per-coordinate / per-direction extreme: optimal value plus the region
   point (LP vertex) where it is attained.  The point doubles as the cache
   invalidation certificate: it survives a cut iff a dot product says so,
   and while it survives, the cached value is still exact (the point
   attains it and the region only shrank). *)
type extreme = { value : float; witness : Vec.t }

(* The canonical frozen tableau of a region: the [Lp.Live] state after
   replaying the cut list from the root simplex, one [add_cut] per node,
   always under the zero objective.  Never mutated after construction —
   value queries fork it ([Lp.Live.copy]) and pivot on the fork, so one
   parent setup is reused across every candidate child and every
   per-candidate objective (the Lemma-2 batch shape).  [Empty] is the
   exact dual-ratio infeasibility verdict.  When a replay step fails
   (pivot budget, numerics), the node's tableau is rebuilt from its full
   constraint list instead; [Unknown] records that the rebuild failed
   too, so the region's geometry is unknown. *)
type frozen = Tableau of Lp.Live.t | Empty | Unknown of Lp.error

type artifacts = {
  mutable feas_point : Vec.t option;
  mutable profile : ((float * float) array * Vec.t list) option;
  mutable fast_bounds : (extreme * extreme) option array;
      (* per coordinate: (min, max); empty array until first use *)
  support : (int, extreme * extreme) Hashtbl.t;
      (* canonical direction index -> (min, max) *)
  mutable frozen : frozen option;
}

type t = {
  dim : int;
  cuts : Halfspace.t list;  (* most recent first *)
  parent : t option;  (* the polytope this was cut from *)
  depth : int;  (* List.length cuts *)
  mutable emptiness : bool option;  (* cached feasibility verdict *)
  art : artifacts;
}

let fresh_artifacts () =
  {
    feas_point = None;
    profile = None;
    fast_bounds = [||];
    support = Hashtbl.create 8;
    frozen = None;
  }

let simplex d =
  if d < 1 then invalid_arg "Polytope.simplex: dimension must be >= 1";
  let art = fresh_artifacts () in
  (* Any basis vector is a point of the full simplex. *)
  art.feas_point <- Some (Vec.basis d 0);
  { dim = d; cuts = []; parent = None; depth = 0; emptiness = Some false; art }

let dim r = r.dim

let halfspaces r = r.cuts

let cut r h =
  if Halfspace.dim h <> r.dim then invalid_arg "Polytope.cut: dimension mismatch";
  {
    dim = r.dim;
    cuts = h :: r.cuts;
    parent = Some r;
    depth = r.depth + 1;
    emptiness = None;
    art = fresh_artifacts ();
  }

let cut_many r hs = List.fold_left cut r hs

let to_lp_constraints r =
  let ones = Vec.make r.dim 1. in
  Lp.constr ones Lp.Eq 1. :: List.map Halfspace.to_lp_constr r.cuts

(* --- Canonical frozen tableau ------------------------------------------ *)

(* A from-scratch tableau over the region's full constraint list: the
   root's canonical build, and the rebuild of a node whose replay step
   failed. *)
let create r =
  match Lp.Live.create ~n:r.dim (to_lp_constraints r) with
  | `Feasible h -> Tableau h
  | `Infeasible -> Empty
  | `Failed err -> Unknown err

let rebuild r =
  Counter.incr c_rebuilds;
  create r

(* [Unknown] is not memoized: a later query retries the replay, and may
   reach a verdict. *)
let rec frozen r =
  match r.art.frozen with
  | Some f ->
    Counter.incr c_cache_hits;
    f
  | None ->
    let f =
      match r.parent with
      | None -> create r
      | Some p -> (
        match frozen p with
        | Empty -> Empty
        | Unknown _ -> rebuild r
        | Tableau ph -> (
          (* Each [cut] node carries exactly one halfspace of its own:
             the head of its cut list. *)
          let h = Lp.Live.copy ph in
          match Lp.Live.add_cut h (Halfspace.to_lp_constr (List.hd r.cuts)) with
          | `Sat | `Reopt _ -> Tableau h
          | `Infeasible -> Empty
          | `Failed _ -> rebuild r))
    in
    (match f with Unknown _ -> () | Tableau _ | Empty -> r.art.frozen <- Some f);
    f

(* --- The d = 2 analytic path ------------------------------------------- *)

(* On the simplex line [u = (a, 1-a)], [a in [0, 1]], every region is an
   interval: cut [n . u >= b] reduces to [(n0 - n1) a >= b - n1].  The
   same thresholds as [line_clip] decide parallel cuts.  A pure function
   of the cut list, and the reason the d = 2 experiment cells run without
   a single LP pivot. *)
let d2_interval r =
  let lo = ref 0. and hi = ref 1. in
  List.iter
    (fun (h : Halfspace.t) ->
      let n0 = Vec.get h.normal 0 and n1 = Vec.get h.normal 1 in
      let coeff = n0 -. n1 and bound = h.offset -. n1 in
      if Float.abs coeff < 1e-14 then begin
        if bound > 1e-12 then begin
          lo := infinity;
          hi := neg_infinity
        end
      end
      else if coeff > 0. then lo := Float.max !lo (bound /. coeff)
      else hi := Float.min !hi (bound /. coeff))
    r.cuts;
  (!lo, !hi)

(* Same feasibility slack as the LP tolerance regime: an interval inverted
   by no more than [d2_tol] is a degenerate (single-point) region, not an
   empty one — matching how the simplex method absorbs round-off on a
   boundary vertex. *)
let d2_tol = 1e-9

let d2_range r =
  let lo, hi = d2_interval r in
  if lo > hi +. d2_tol then None
  else if lo > hi then
    let m = 0.5 *. (lo +. hi) in
    Some (m, m)
  else Some (lo, hi)

let d2_point a = Vec.init 2 (fun i -> if i = 0 then a else 1. -. a)

let d2_range_exn r =
  match d2_range r with Some iv -> iv | None -> assert false

(* --- Feasibility ------------------------------------------------------- *)

(* Points of [r] already known from any cached artifact, cheapest first.
   Which point settles a feasibility probe is irrelevant downstream (only
   the verdict escapes), so every cached witness is fair game. *)
let known_points r =
  let acc = match r.art.feas_point with Some p -> [ p ] | None -> [] in
  let acc =
    match r.art.profile with
    | Some (_, witnesses) -> acc @ witnesses
    | None -> acc
  in
  let acc =
    Array.fold_left
      (fun acc slot ->
        match slot with
        | Some ((mn : extreme), (mx : extreme)) ->
          mn.witness :: mx.witness :: acc
        | None -> acc)
      acc r.art.fast_bounds
  in
  (* The support memo is a hash table; fold order is bucket order, which
     depends on insertion history.  Which cached witness settles a
     feasibility probe picks the [feas_point] that seeds descendant
     probes, so enumerate in canonical-direction-index order to keep the
     candidate sequence a pure function of the cut list (IND001). *)
  Hashtbl.fold (fun idx pair acc -> (idx, pair) :: acc) r.art.support []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.fold_left
       (fun acc (_, ((mn : extreme), (mx : extreme))) ->
         mn.witness :: mx.witness :: acc)
       acc

(* Every ancestor artifact [probe] finds along the cut chain (nearest
   first), each paired with the halfspaces a witness from that ancestor
   must satisfy to still be a point of [r]. *)
let ancestor_candidates r ~probe =
  let rec go node cuts acc =
    let acc =
      match probe node with
      | Some artifact -> (artifact, cuts) :: acc
      | None -> acc
    in
    match (node.parent, node.cuts) with
    | Some p, newest :: _ -> go p (newest :: cuts) acc
    | _ -> List.rev acc
  in
  go r [] []

let survives cuts point = List.for_all (fun h -> Halfspace.satisfies h point) cuts

let is_empty r =
  match r.emptiness with
  | Some verdict -> verdict
  | None ->
    if r.dim = 2 then begin
      let verdict = d2_range r = None in
      r.emptiness <- Some verdict;
      verdict
    end
    else
      (* Any ancestor point surviving the interleaving cuts is a point of
         [r]: feasibility settled by dot products alone. *)
      let cached_point =
        ancestor_candidates r ~probe:(fun a ->
            match known_points a with [] -> None | ps -> Some ps)
        |> List.find_map (fun (points, cuts) ->
               List.find_opt (survives cuts) points)
      in
      (match cached_point with
      | Some p ->
        Counter.incr c_cache_hits;
        r.art.feas_point <- Some p;
        r.emptiness <- Some false;
        false
      | None -> (
        match frozen r with
        | Empty ->
          r.emptiness <- Some true;
          true
        | Tableau h ->
          r.emptiness <- Some false;
          if r.art.feas_point = None then r.art.feas_point <- Some (Lp.Live.point h);
          false
        | Unknown _ ->
          (* The solver could not reach a verdict, so the region's
             feasibility is unknown.  Report it as unusable (empty) —
             callers discard an empty posterior and keep their last sound
             region, which preserves no-false-negatives — but do NOT cache
             the verdict: a later query may succeed and must not inherit a
             fabricated emptiness. *)
          true))

let contains ?tol r v =
  Vec.dim v = r.dim
  && Vec.for_all (fun x -> Floatx.geq ?tol x 0.) v
  && Floatx.approx_equal ?tol (Vec.sum v) 1.
  && List.for_all (fun h -> Halfspace.satisfies ?tol h v) r.cuts

let require_nonempty name r =
  if is_empty r then invalid_arg (name ^ ": empty region")

(* --- Canonical extremes ------------------------------------------------ *)

(* The (min, max) extreme pair of [dir] over [r], computed fresh at this
   node: fork the frozen tableau and re-optimize both senses on the fork
   (low side first).  [adopt_lo] / [adopt_hi] carry a parent-pair side
   whose witness survived this node's cut — its value is still exact (the
   witness attains it and the region only shrank), so that side is reused
   verbatim and only the broken side pays pivots.  Which sides are
   adopted is itself a pure function of the cut list, so the fork's pivot
   sequence — and every produced float — is canonical. *)
let fresh_pair r dir ~adopt_lo ~adopt_hi =
  match frozen r with
  | Empty -> invalid_arg "Polytope: extreme of empty region"
  | Unknown err -> raise (Solver_error err)
  | Tableau fh ->
    let fork = lazy (Lp.Live.copy fh) in
    let side adopt sense =
      match adopt with
      | Some e -> e
      | None -> (
        match Lp.Live.optimize (Lazy.force fork) ~objective:dir sense with
        | Lp.Optimal { objective; point } -> { value = objective; witness = point }
        | Lp.Failed err -> raise (Solver_error err)
        | Lp.Infeasible | Lp.Unbounded -> assert false)
    in
    let lo = side adopt_lo `Minimize in
    let hi = side adopt_hi `Maximize in
    (lo, hi)

(* The canonical extreme pair of [dir] over [r]: adopt the parent's pair
   where its witnesses survive [r]'s cut, fork-and-pivot the rest.  The
   recursion bottoms out at the root or at the nearest ancestor with a
   memoized pair.  Memo writes go to the queried node only — ancestors are
   read, never written, preserving the trial-local ownership discipline
   the parallel bench relies on. *)
let canonical_pair r dir ~get ~set =
  let rec lookup node =
    match get node with
    | Some pair ->
      Counter.incr c_cache_hits;
      pair
    | None -> (
      match node.parent with
      | Some p ->
        let ((plo, phi) as parent_pair) = lookup p in
        let cut = List.hd node.cuts in
        let lo_ok = Halfspace.satisfies cut plo.witness in
        let hi_ok = Halfspace.satisfies cut phi.witness in
        if lo_ok && hi_ok then begin
          Counter.incr c_cache_hits;
          parent_pair
        end
        else
          fresh_pair node dir
            ~adopt_lo:(if lo_ok then Some plo else None)
            ~adopt_hi:(if hi_ok then Some phi else None)
      | None -> fresh_pair node dir ~adopt_lo:None ~adopt_hi:None)
  in
  let pair = lookup r in
  set r pair;
  pair

let ensure_fast_bounds r =
  if Array.length r.art.fast_bounds = 0 then
    r.art.fast_bounds <- Array.make r.dim None

let axis_pair r i =
  canonical_pair r (Vec.basis r.dim i)
    ~get:(fun a ->
      if Array.length a.art.fast_bounds = 0 then None else a.art.fast_bounds.(i))
    ~set:(fun a pair ->
      ensure_fast_bounds a;
      a.art.fast_bounds.(i) <- Some pair)

(* --- Coordinate profile ------------------------------------------------ *)

(* d = 2: both endpoints of the interval are the region's complete vertex
   set; the witness list keeps the legacy layout
   [p_lo(d-1); p_hi(d-1); ...; p_lo(0); p_hi(0)]. *)
let d2_profile r =
  let lo, hi = d2_range_exn r in
  let pt_lo = d2_point lo and pt_hi = d2_point hi in
  let bounds = [| (lo, hi); (1. -. hi, 1. -. lo) |] in
  (* Coordinate 1 is minimized at [a = hi] and maximized at [a = lo]. *)
  let witnesses = [ pt_hi; pt_lo; pt_lo; pt_hi ] in
  (bounds, witnesses)

let compute_profile r =
  require_nonempty "Polytope.coordinate_bounds" r;
  if r.dim = 2 then d2_profile r
  else begin
    let witnesses = ref [] in
    let bounds =
      Array.init r.dim (fun i ->
          let lo, hi = axis_pair r i in
          witnesses := lo.witness :: hi.witness :: !witnesses;
          (lo.value, hi.value))
    in
    (bounds, !witnesses)
  end

let coordinate_profile r =
  match r.art.profile with
  | Some p ->
    Counter.incr c_cache_hits;
    p
  | None ->
    let p = compute_profile r in
    r.art.profile <- Some p;
    p

let coordinate_bounds r = fst (coordinate_profile r)

(* --- Complete vertex enumeration (small dimensions) -------------------- *)

(* d = 3: the region is a polygon on the plane x + y + z = 1.  Clip the
   simplex triangle (e_0, e_1, e_2) by every cut, oldest to newest, with
   Sutherland–Hodgman.  Pure float arithmetic over the cut list — no LP,
   no cache, no RNG — so the vertex list is a deterministic function of
   the cuts.  Returns [] when the
   clipping degenerates away (the region may still be nonempty within
   solver tolerance; callers must fall back to LP-grade queries). *)
let d3_polygon r =
  let dim = r.dim in
  let clip poly h =
    match poly with
    | [] -> []
    | first :: _ ->
      let crossing p q sp sq =
        let t = sp /. (sp -. sq) in
        Vec.init dim (fun i ->
            Vec.get p i +. (t *. (Vec.get q i -. Vec.get p i)))
      in
      (* Emit, per directed edge (p, q): p when inside, plus the boundary
         crossing when the edge straddles it. *)
      let edge p q =
        let sp = Halfspace.slack h p and sq = Halfspace.slack h q in
        if sp >= 0. then
          if sq >= 0. then [ p ] else [ p; crossing p q sp sq ]
        else if sq >= 0. then [ crossing p q sp sq ]
        else []
      in
      let rec go = function
        | [] -> []
        | [ p ] -> edge p first
        | p :: (q :: _ as rest) -> edge p q @ go rest
      in
      go poly
  in
  List.fold_left clip
    [ Vec.basis dim 0; Vec.basis dim 1; Vec.basis dim 2 ]
    (List.rev r.cuts)

let complete_vertices r =
  if r.dim = 2 then Some (snd (coordinate_profile r))
  else if r.dim = 3 then
    match d3_polygon r with [] -> None | vs -> Some vs
  else None

(* --- Width / diameter folds -------------------------------------------- *)

(* Skip margin for hint-based pruning of max-fold directions.  A hint is
   an ancestor's cached float, and the skipped direction's canonical
   float both carry LP round-off (~1e-9 at worst on the unit simplex);
   skipping only when the hint trails the running maximum by more than
   this margin guarantees the skipped float could not have changed the
   fold, keeping the returned value identical to the skip-free fold.
   Directions within the margin — ties included — are computed. *)
let skip_margin = 1e-6

(* An upper bound on coordinate [i]'s range over [r], from the nearest
   ancestor (or [r] itself) that ever solved it: regions only shrink, so
   an ancestor's range bounds every descendant's — no witness revalidation
   needed.  [None] when nothing in the chain has touched coordinate [i]. *)
let rec range_hint r i =
  let here =
    if Array.length r.art.fast_bounds > 0 && r.art.fast_bounds.(i) <> None then
      match r.art.fast_bounds.(i) with
      | Some (mn, mx) -> Some (mx.value -. mn.value)
      | None -> None
    else
      match r.art.profile with
      | Some (bounds, _) ->
        let lo, hi = bounds.(i) in
        Some (hi -. lo)
      | None -> None
  in
  match here with
  | Some _ as s -> s
  | None -> (match r.parent with Some p -> range_hint p i | None -> None)

(* Process directions in descending order of their inherited upper bound,
   so the true maximum is met early and every direction whose bound cannot
   beat the running maximum is skipped without touching a tableau.  Exact
   by the margin argument above; [None] hints sort first (they must be
   computed). *)
let by_descending_hint hints =
  let arr = Array.mapi (fun i h -> (i, h)) hints in
  Array.sort
    (fun (i, a) (j, b) ->
      match (a, b) with
      | None, None -> compare i j
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some x, Some y ->
        let c = Float.compare y x in
        if c <> 0 then c else compare i j)
    arr;
  arr

(* Break out of a max-fold once the caller has seen enough. *)
exception Stopped

let width ?stop_when r =
  require_nonempty "Polytope.coordinate_bounds" r;
  if r.dim = 2 then begin
    let lo, hi = d2_range_exn r in
    (* Both coordinate ranges, folded like the generic path folds the
       profile bounds, so the floats agree with [coordinate_bounds]. *)
    Float.max (Float.max 0. (hi -. lo)) ((1. -. lo) -. (1. -. hi))
  end
  else begin
    let order = by_descending_hint (Array.init r.dim (range_hint r)) in
    let acc = ref 0. in
    (try
       Array.iter
         (fun (i, hint) ->
           (match hint with
           | Some h when h +. skip_margin <= !acc -> Counter.incr c_cache_hits
           | _ ->
             let lo, hi = axis_pair r i in
             acc := Float.max !acc (hi.value -. lo.value));
           match stop_when with
           | Some f when f !acc -> raise Stopped
           | _ -> ())
         order
     with Stopped -> ());
    !acc
  end

(* Support extremes along an arbitrary direction, uncached: a fresh fork
   of the frozen tableau per call (d = 2: the interval endpoints). *)
let support_pair r dir =
  if r.dim = 2 then begin
    let lo, hi = d2_range_exn r in
    let pt_lo = d2_point lo and pt_hi = d2_point hi in
    let v_lo = Vec.dot dir pt_lo and v_hi = Vec.dot dir pt_hi in
    if v_lo <= v_hi then
      ({ value = v_lo; witness = pt_lo }, { value = v_hi; witness = pt_hi })
    else ({ value = v_hi; witness = pt_hi }, { value = v_lo; witness = pt_lo })
  end
  else fresh_pair r dir ~adopt_lo:None ~adopt_hi:None

let support_width r dir =
  require_nonempty "Polytope.support_width" r;
  let lo, hi = support_pair r dir in
  hi.value -. lo.value

let axis_pair_directions d =
  let dirs = ref [] in
  for i = 0 to d - 1 do
    for j = i + 1 to d - 1 do
      let dir = Vec.make d 0. in
      Vec.set dir i 1.;
      Vec.set dir j (-1.);
      dirs := dir :: !dirs
    done
  done;
  !dirs

(* Support extremes along canonical direction [idx] (the position in
   [axes @ axis_pair_directions dim]), cached per polytope and adopted
   through cuts like the coordinate bounds. *)
let fast_support_extremes r idx dir =
  canonical_pair r dir
    ~get:(fun a -> Hashtbl.find_opt a.art.support idx)
    ~set:(fun a pair -> Hashtbl.replace a.art.support idx pair)

(* [range_hint]'s analogue for canonical support directions; for axis
   directions the coordinate caches hint too (an axis support width IS
   that coordinate's range). *)
let rec support_hint r idx =
  match Hashtbl.find_opt r.art.support idx with
  | Some ((mn : extreme), (mx : extreme)) -> Some (mx.value -. mn.value)
  | None -> (match r.parent with Some p -> support_hint p idx | None -> None)

let diameter ?(extra_directions = [||]) ?stop_when r =
  require_nonempty "Polytope.diameter" r;
  let axes = List.init r.dim (fun i -> Vec.basis r.dim i) in
  let canonical = Array.of_list (axes @ axis_pair_directions r.dim) in
  let extent_of support dir = support /. Float.max (Vec.norm2 dir) 1e-12 in
  let acc = ref 0. in
  (try
     if r.dim = 2 then
       Array.iter
         (fun dir ->
           let lo, hi = support_pair r dir in
           acc := Float.max !acc (extent_of (hi.value -. lo.value) dir))
         canonical
     else begin
       let hints =
         Array.mapi
           (fun idx dir ->
             let h =
               match support_hint r idx with
               | Some _ as s -> s
               | None -> if idx < r.dim then range_hint r idx else None
             in
             Option.map (fun h -> extent_of h dir) h)
           canonical
       in
       Array.iter
         (fun (idx, hint) ->
           (match hint with
           | Some h when h +. skip_margin <= !acc -> Counter.incr c_cache_hits
           | _ ->
             let dir = canonical.(idx) in
             let lo, hi = fast_support_extremes r idx dir in
             acc := Float.max !acc (extent_of (hi.value -. lo.value) dir));
           match stop_when with
           | Some f when f !acc -> raise Stopped
           | _ -> ())
         (by_descending_hint hints)
     end;
     Array.iter
       (fun dir ->
         let lo, hi = support_pair r dir in
         acc := Float.max !acc (extent_of (hi.value -. lo.value) dir))
       extra_directions
   with Stopped -> ());
  !acc

(* --- Representative points --------------------------------------------- *)

let center_estimate r =
  require_nonempty "Polytope.center_estimate" r;
  (* Built from the canonical profile: the 2d extreme vertices, summed in
     the historical order (max then min per coordinate), so the estimate
     is a pure function of the cut list while paying its pivots only once
     per polytope. *)
  let _, witnesses = coordinate_profile r in
  (* witnesses = [p_lo(d-1); p_hi(d-1); ...; p_lo(0); p_hi(0)] *)
  let arr = Array.of_list witnesses in
  let acc = Vec.make r.dim 0. in
  let count = ref 0 in
  for i = 0 to r.dim - 1 do
    let base = 2 * (r.dim - 1 - i) in
    let p_lo = arr.(base) and p_hi = arr.(base + 1) in
    Vec.add_ip acc p_hi;
    incr count;
    Vec.add_ip acc p_lo;
    incr count
  done;
  Vec.map (fun x -> x /. float_of_int !count) acc

(* --- Optimization over the region -------------------------------------- *)

let maximize r c =
  if Vec.dim c <> r.dim then invalid_arg "Polytope.maximize: bad objective";
  if is_empty r then None
  else if r.dim = 2 then begin
    let lo, hi = d2_range_exn r in
    let pt_lo = d2_point lo and pt_hi = d2_point hi in
    let v_lo = Vec.dot c pt_lo and v_hi = Vec.dot c pt_hi in
    if v_hi >= v_lo then Some (v_hi, pt_hi) else Some (v_lo, pt_lo)
  end
  else
    match frozen r with
    | Empty -> None
    | Unknown err -> raise (Solver_error err)
    | Tableau fh -> (
      match Lp.Live.optimize (Lp.Live.copy fh) ~objective:c `Maximize with
      | Lp.Optimal { objective; point } ->
        if r.art.feas_point = None then r.art.feas_point <- Some point;
        Some (objective, point)
      | Lp.Failed err -> raise (Solver_error err)
      | Lp.Infeasible | Lp.Unbounded ->
        (* Impossible over the compact simplex; flag loudly if the LP ever
           reports it. *)
        assert false)

let minimize r c =
  match maximize r (Vec.neg c) with
  | Some (value, point) -> Some (-.value, point)
  | None -> None

(* How far can we move from [x] along [w] (with sum w_i = 0) before leaving
   the region?  Clips against v >= 0 and each cut; returns (t_min, t_max). *)
let line_clip r x w =
  let t_lo = ref neg_infinity and t_hi = ref infinity in
  let tighten coeff bound =
    (* constraint: coeff * t >= bound *)
    if Float.abs coeff < 1e-14 then begin
      (* Direction parallel to the constraint: if violated we produce an
         empty interval. *)
      if bound > 1e-12 then begin
        t_lo := infinity;
        t_hi := neg_infinity
      end
    end
    else if coeff > 0. then t_lo := Float.max !t_lo (bound /. coeff)
    else t_hi := Float.min !t_hi (bound /. coeff)
  in
  (* v_i = x_i + t w_i >= 0  <=>  w_i * t >= -x_i *)
  for i = 0 to r.dim - 1 do
    tighten (Vec.get w i) (-.Vec.get x i)
  done;
  List.iter
    (fun (h : Halfspace.t) ->
      (* normal.(x + t w) >= offset  <=>  (normal.w) t >= offset - normal.x *)
      let coeff = Vec.dot h.normal w in
      tighten coeff (-.Halfspace.slack h x))
    r.cuts;
  (!t_lo, !t_hi)

let random_point r rng ~steps =
  require_nonempty "Polytope.random_point" r;
  (* [center_estimate] returns a fresh vector, so the walk can step it in
     place ([axpy_ip] computes the same bits as [axpy]). *)
  let x = center_estimate r in
  for _ = 1 to steps do
    (* Random direction on the simplex hyperplane: gaussian, centered. *)
    let raw = Vec.init r.dim (fun _ -> Rng.gaussian rng) in
    let mean = Vec.sum raw /. float_of_int r.dim in
    let w = Vec.map (fun v -> v -. mean) raw in
    if Vec.norm2 w > 1e-9 then begin
      let t_lo, t_hi = line_clip r x w in
      if t_lo < t_hi && Float.is_finite t_lo && Float.is_finite t_hi then begin
        let t = Rng.in_range rng t_lo t_hi in
        Vec.axpy_ip t w x
      end
    end
  done;
  x
