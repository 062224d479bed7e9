module Dataset = Indq_dataset.Dataset
module Store = Indq_dataset.Store
module Tuple = Indq_dataset.Tuple
module Vec = Indq_linalg.Vec
module Counter = Indq_obs.Counter

(* Which variant the {!c_skyline} dispatch chose — the perf gate watches
   these (together with [rtree.nodes_visited]) so a silent fallback to the
   linear-window scan shows up as a counter regression, not just a slow
   cell. *)
let c_path_sweep = Counter.make "skyline.path_sweep"

let c_path_sfs = Counter.make "skyline.path_sfs"

let c_path_store = Counter.make "skyline.path_store"

let c_skyline_bnl ~c data =
  if c < 1. then invalid_arg "Skyline.c_skyline_bnl: c must be >= 1";
  Dataset.filter data (fun p ->
      not
        (Array.exists
           (fun q ->
             Tuple.id q <> Tuple.id p && Dominance.c_dominates_tuple ~c q p)
           (Dataset.tuples data)))

let c_skyline_sfs ~c data =
  if c < 1. then invalid_arg "Skyline.c_skyline_sfs: c must be >= 1";
  let n = Dataset.size data in
  if n = 0 then data
  else begin
    (* Sort by decreasing coordinate sum: any c-dominator (c >= 1, data
       >= 0) has a strictly larger sum, so one window pass suffices. *)
    let scored =
      Array.map (fun p -> (Vec.sum (Tuple.values p), p)) (Dataset.tuples data)
    in
    Array.sort
      (fun (sa, pa) (sb, pb) ->
        match Float.compare sb sa with
        | 0 -> Tuple.compare_id pa pb
        | cmp -> cmp)
      scored;
    let window = ref [] in
    Array.iter
      (fun (_, p) ->
        let dominated =
          List.exists (fun q -> Dominance.c_dominates_tuple ~c q p) !window
        in
        if not dominated then window := p :: !window)
      scored;
    (* Restore the original dataset order for stable downstream behaviour. *)
    let keep = Hashtbl.create (List.length !window) in
    List.iter (fun p -> Hashtbl.replace keep (Tuple.id p) ()) !window;
    Dataset.filter data (fun p -> Hashtbl.mem keep (Tuple.id p))
  end

(* Plane sweep for d = 2.  A point p is c-dominated iff some q satisfies
   [q.x >= c p.x && q.y > c p.y] or [q.x > c p.x && q.y >= c p.y]; with the
   points sorted by decreasing x, both existential tests become prefix
   queries answered by a prefix-maximum of y. *)
let c_skyline_sweep_2d ~c data =
  if c < 1. then invalid_arg "Skyline.c_skyline_sweep_2d: c must be >= 1";
  if Dataset.size data > 0 && Dataset.dim data <> 2 then
    invalid_arg "Skyline.c_skyline_sweep_2d: data must be 2-dimensional";
  let n = Dataset.size data in
  if n = 0 then data
  else begin
    let pts = Array.map Tuple.values (Dataset.tuples data) in
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j -> Float.compare (Vec.get pts.(j) 0) (Vec.get pts.(i) 0))
      order;
    (* xs sorted descending; prefix_max_y.(k) = max y among the first k. *)
    let xs = Array.map (fun i -> Vec.get pts.(i) 0) order in
    let prefix_max_y = Array.make (n + 1) neg_infinity in
    Array.iteri
      (fun k i ->
        prefix_max_y.(k + 1) <- Float.max prefix_max_y.(k) (Vec.get pts.(i) 1))
      order;
    (* Count of leading entries with x >= bound (weak) or x > bound
       (strict), by binary search on the descending xs. *)
    let count_with ~strict bound =
      let keep x = if strict then x > bound else x >= bound in
      let lo = ref 0 and hi = ref n in
      (* invariant: all indices < lo satisfy keep, all >= hi do not *)
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if keep xs.(mid) then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let dominated p =
      let cx = c *. Vec.get p 0 and cy = c *. Vec.get p 1 in
      let weak = count_with ~strict:false cx in
      let strict = count_with ~strict:true cx in
      prefix_max_y.(weak) > cy || prefix_max_y.(strict) >= cy
    in
    Dataset.filter data (fun p -> not (dominated (Tuple.values p)))
  end

(* Fully columnar variant: a packed STR-tree over the dataset's flat store
   buffer answers each c-domination test as an early-exit box probe, and
   the result materializes through positional selection — no per-tuple
   views on the hot path, so this is the variant that scales to 10^7
   rows. *)
let c_skyline_store ~c data =
  if c < 1. then invalid_arg "Skyline.c_skyline_store: c must be >= 1";
  let n = Dataset.size data in
  if n = 0 then data
  else begin
    let d = Dataset.dim data in
    let flat = Store.data (Dataset.store data) in
    let tree = Indq_rtree.Strtree.build ~dim:d flat n in
    let upper = Vec.make d neg_infinity in
    for pos = 0 to n - 1 do
      let base = pos * d in
      for i = 0 to d - 1 do
        let x = Vec.get flat (base + i) in
        if x > Vec.get upper i then Vec.set upper i x
      done
    done;
    let corner = Vec.make d 0. in
    let dominated pos =
      let base = pos * d in
      (* Same float expressions as [Dominance.c_dominates]: the box's lower
         corner is [c *. p_i], membership gives the all-geq half, and [f]
         checks the strict half. *)
      let escapes = ref false in
      for i = 0 to d - 1 do
        let ci = c *. Vec.get flat (base + i) in
        Vec.set corner i ci;
        (* Outside the data envelope, nothing can c-dominate. *)
        if ci > Vec.get upper i then escapes := true
      done;
      if !escapes then false
      else
        Indq_rtree.Strtree.exists_in_box tree ~lo:corner ~hi:upper
          ~f:(fun qpos ->
            qpos <> pos
            &&
            let qbase = qpos * d in
            let some_gt = ref false in
            for i = 0 to d - 1 do
              if Vec.get flat (qbase + i) > Vec.get corner i then
                some_gt := true
            done;
            !some_gt)
    in
    let keep = Array.make n false in
    let count = ref 0 in
    for pos = 0 to n - 1 do
      if not (dominated pos) then begin
        keep.(pos) <- true;
        incr count
      end
    done;
    let positions = Array.make !count 0 in
    let j = ref 0 in
    for pos = 0 to n - 1 do
      if keep.(pos) then begin
        positions.(!j) <- pos;
        incr j
      end
    done;
    Dataset.select_rows data positions
  end

(* Dispatch: the 2-D sweep is always best for d = 2; the SFS window pass
   wins while inputs are small, but on data whose c-skyline grows with n
   (anti-correlated) it degenerates to O(n * |skyline|), so inputs above
   [sfs_max_rows] go to the packed columnar index.  Every variant returns
   the same set in the same (original) order, so dispatch never alters
   query outputs — only which counter moves. *)
let sfs_max_rows = 512

let c_skyline ~c data =
  if Dataset.size data > 0 && Dataset.dim data = 2 then begin
    Counter.incr c_path_sweep;
    c_skyline_sweep_2d ~c data
  end
  else if Dataset.size data <= sfs_max_rows then begin
    Counter.incr c_path_sfs;
    c_skyline_sfs ~c data
  end
  else begin
    Counter.incr c_path_store;
    c_skyline_store ~c data
  end

let skyline data = c_skyline ~c:1. data

let prune_eps_dominated ~eps data =
  if eps < 0. then invalid_arg "Skyline.prune_eps_dominated: negative eps";
  c_skyline ~c:(1. +. eps) data

let is_dominated_by_any data p =
  Array.exists
    (fun q -> Tuple.id q <> Tuple.id p && Dominance.dominates_tuple q p)
    (Dataset.tuples data)
