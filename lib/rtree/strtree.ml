(* A packed, static STR-tree over the rows of a flat columnar buffer.
   Nothing here is a per-node heap object: the row permutation is one int
   array, each level's bounding boxes are two flat Float64 buffers, and
   children are addressed implicitly (node [j]'s children are nodes
   [j*fanout ..] of the level below).  A 10^7-point tree is a handful of
   allocations, and builds in a few sorting passes. *)

module Counter = Indq_obs.Counter
module Histogram = Indq_obs.Histogram
module Vec = Indq_linalg.Vec

let c_nodes_visited = Counter.make "rtree.nodes_visited"

let c_bulk_nodes = Counter.make "rtree.bulk_nodes"

let h_leaf_fill = Histogram.make "rtree.leaf_fill"

type level = { l_lo : Vec.t; l_hi : Vec.t; l_count : int }

type t = {
  t_dim : int;
  t_n : int;
  t_data : Vec.t;  (* the flat row-major buffer the tree indexes into *)
  t_order : int array;  (* permutation of row positions, leaves = runs *)
  t_leaf_start : int array;  (* leaf j spans order[start.(j) .. start.(j+1)) *)
  t_fanout : int;
  t_levels : level array;  (* levels.(0) = leaves, last level has 1 node *)
}

let dim t = t.t_dim

let size t = t.t_n

let depth t = Array.length t.t_levels

let leaf_count t =
  if Array.length t.t_levels = 0 then 0 else t.t_levels.(0).l_count

(* Smallest s >= 1 with s^k >= pages — exact integer arithmetic so slab
   counts (hence tree shape and visit counters) cannot drift with libm
   rounding. *)
let int_kth_root_ceil ~k pages =
  let pow s =
    let p = ref 1 in
    for _ = 1 to k do
      p := !p * s
    done;
    !p
  in
  let s = ref 1 in
  while pow !s < pages do
    incr s
  done;
  !s

(* Sort order[lo..hi) by coordinate [axis] of the rows it names. *)
let sort_range data ~dim order lo hi axis =
  let len = hi - lo in
  let tmp = Array.sub order lo len in
  Array.sort
    (fun i j ->
      Float.compare (Vec.get data ((i * dim) + axis)) (Vec.get data ((j * dim) + axis)))
    tmp;
  Array.blit tmp 0 order lo len

let build ?(leaf_cap = 32) ?(fanout = 8) ~dim data n =
  if dim <= 0 then invalid_arg "Strtree.build: dimension must be positive";
  if n < 0 then invalid_arg "Strtree.build: negative row count";
  if leaf_cap < 1 then invalid_arg "Strtree.build: leaf_cap must be >= 1";
  if fanout < 2 then invalid_arg "Strtree.build: fanout must be >= 2";
  if n * dim > Vec.dim data then invalid_arg "Strtree.build: buffer too short";
  let order = Array.init n Fun.id in
  if n = 0 then
    {
      t_dim = dim;
      t_n = 0;
      t_data = data;
      t_order = order;
      t_leaf_start = [| 0 |];
      t_fanout = fanout;
      t_levels = [||];
    }
  else begin
    (* Tile the permutation in place; slabs are processed left to right, so
       leaves come out as ascending consecutive runs. *)
    let bounds = ref [ 0 ] in
    let rec tile lo hi axis =
      let len = hi - lo in
      if len <= leaf_cap then bounds := hi :: !bounds
      else if axis >= dim - 1 then begin
        sort_range data ~dim order lo hi axis;
        let i = ref lo in
        while !i < hi do
          let step = min leaf_cap (hi - !i) in
          i := !i + step;
          bounds := !i :: !bounds
        done
      end
      else begin
        let pages = (len + leaf_cap - 1) / leaf_cap in
        let slabs = int_kth_root_ceil ~k:(dim - axis) pages in
        let per_slab = (len + slabs - 1) / slabs in
        sort_range data ~dim order lo hi axis;
        let i = ref lo in
        while !i < hi do
          let step = min per_slab (hi - !i) in
          tile !i (!i + step) (axis + 1);
          i := !i + step
        done
      end
    in
    tile 0 n 0;
    let leaf_start = Array.of_list (List.rev !bounds) in
    let leaves = Array.length leaf_start - 1 in
    (* Leaf-level bounding boxes. *)
    let lo0 = Vec.make (leaves * dim) infinity in
    let hi0 = Vec.make (leaves * dim) neg_infinity in
    for j = 0 to leaves - 1 do
      Counter.incr c_bulk_nodes;
      Histogram.observe h_leaf_fill
        (float_of_int (leaf_start.(j + 1) - leaf_start.(j)));
      for s = leaf_start.(j) to leaf_start.(j + 1) - 1 do
        let base = order.(s) * dim in
        for i = 0 to dim - 1 do
          let x = Vec.get data (base + i) in
          let k = (j * dim) + i in
          if x < Vec.get lo0 k then Vec.set lo0 k x;
          if x > Vec.get hi0 k then Vec.set hi0 k x
        done
      done
    done;
    (* Upper levels: fanout consecutive children per node, until one root.
       Leaves arrive in tile order, so consecutive runs stay spatially
       tight. *)
    let levels = ref [ { l_lo = lo0; l_hi = hi0; l_count = leaves } ] in
    let rec pack prev =
      if prev.l_count > 1 then begin
        let count = (prev.l_count + fanout - 1) / fanout in
        let lo = Vec.make (count * dim) infinity in
        let hi = Vec.make (count * dim) neg_infinity in
        for j = 0 to count - 1 do
          Counter.incr c_bulk_nodes;
          let first = j * fanout in
          let last = min (first + fanout) prev.l_count - 1 in
          for k = first to last do
            for i = 0 to dim - 1 do
              let src = (k * dim) + i and dst = (j * dim) + i in
              let x = Vec.get prev.l_lo src in
              if x < Vec.get lo dst then Vec.set lo dst x;
              let y = Vec.get prev.l_hi src in
              if y > Vec.get hi dst then Vec.set hi dst y
            done
          done
        done;
        let level = { l_lo = lo; l_hi = hi; l_count = count } in
        levels := level :: !levels;
        pack level
      end
    in
    pack (List.hd !levels);
    {
      t_dim = dim;
      t_n = n;
      t_data = data;
      t_order = order;
      t_leaf_start = leaf_start;
      t_fanout = fanout;
      t_levels = Array.of_list (List.rev !levels);
    }
  end

let check_box t lo hi name =
  if Vec.dim lo <> t.t_dim || Vec.dim hi <> t.t_dim then
    invalid_arg (name ^ ": dimension mismatch")

let node_intersects t level j ~lo ~hi =
  Counter.incr c_nodes_visited;
  let d = t.t_dim in
  let ok = ref true in
  for i = 0 to d - 1 do
    if
      Vec.get level.l_lo ((j * d) + i) > Vec.get hi i
      || Vec.get lo i > Vec.get level.l_hi ((j * d) + i)
    then ok := false
  done;
  !ok
[@@indq.alloc_free
  "query-probe kernel: Bigarray box compares against the flat level \
   arrays, with a local bool accumulator the backend keeps in a register"]

let point_in_box t pos ~lo ~hi =
  let d = t.t_dim in
  let base = pos * d in
  let ok = ref true in
  for i = 0 to d - 1 do
    let x = Vec.get t.t_data (base + i) in
    if x < Vec.get lo i || x > Vec.get hi i then ok := false
  done;
  !ok
[@@indq.alloc_free
  "query-probe kernel: leaf-point containment test over the flat \
   coordinate array; no boxing on the compare path"]

exception Found

let exists_in_box t ~lo ~hi ~f =
  check_box t lo hi "Strtree.exists_in_box";
  let nlevels = Array.length t.t_levels in
  if nlevels = 0 then false
  else begin
    let rec go lev j =
      if node_intersects t t.t_levels.(lev) j ~lo ~hi then begin
        if lev = 0 then begin
          for s = t.t_leaf_start.(j) to t.t_leaf_start.(j + 1) - 1 do
            let pos = t.t_order.(s) in
            if point_in_box t pos ~lo ~hi && f pos then raise Found
          done
        end
        else begin
          let first = j * t.t_fanout in
          let last =
            min (first + t.t_fanout) t.t_levels.(lev - 1).l_count - 1
          in
          for k = first to last do
            go (lev - 1) k
          done
        end
      end
    in
    try
      go (nlevels - 1) 0;
      false
    with Found -> true
  end

let fold_in_box t ~lo ~hi ~init ~f =
  check_box t lo hi "Strtree.fold_in_box";
  let nlevels = Array.length t.t_levels in
  if nlevels = 0 then init
  else begin
    let acc = ref init in
    let rec go lev j =
      if node_intersects t t.t_levels.(lev) j ~lo ~hi then begin
        if lev = 0 then
          for s = t.t_leaf_start.(j) to t.t_leaf_start.(j + 1) - 1 do
            let pos = t.t_order.(s) in
            if point_in_box t pos ~lo ~hi then acc := f !acc pos
          done
        else begin
          let first = j * t.t_fanout in
          let last =
            min (first + t.t_fanout) t.t_levels.(lev - 1).l_count - 1
          in
          for k = first to last do
            go (lev - 1) k
          done
        end
      end
    in
    go (nlevels - 1) 0;
    !acc
  end

let collect_in_box t ~lo ~hi =
  List.rev (fold_in_box t ~lo ~hi ~init:[] ~f:(fun acc pos -> pos :: acc))

let check_invariants t =
  let ok = ref true in
  let d = t.t_dim in
  (* The permutation covers every row exactly once. *)
  let seen = Array.make t.t_n false in
  Array.iter
    (fun pos ->
      if pos < 0 || pos >= t.t_n || seen.(pos) then ok := false
      else seen.(pos) <- true)
    t.t_order;
  Array.iter (fun b -> if not b then ok := false) seen;
  if Array.length t.t_levels > 0 then begin
    (* Leaf boxes contain their points. *)
    let l0 = t.t_levels.(0) in
    if Array.length t.t_leaf_start <> l0.l_count + 1 then ok := false;
    for j = 0 to l0.l_count - 1 do
      for s = t.t_leaf_start.(j) to t.t_leaf_start.(j + 1) - 1 do
        let base = t.t_order.(s) * d in
        for i = 0 to d - 1 do
          let x = Vec.get t.t_data (base + i) in
          if
            x < Vec.get l0.l_lo ((j * d) + i)
            || x > Vec.get l0.l_hi ((j * d) + i)
          then ok := false
        done
      done
    done;
    (* Every upper node's box contains its children's boxes, and the top
       level is a single root. *)
    for lev = 1 to Array.length t.t_levels - 1 do
      let up = t.t_levels.(lev) and down = t.t_levels.(lev - 1) in
      for j = 0 to up.l_count - 1 do
        let first = j * t.t_fanout in
        let last = min (first + t.t_fanout) down.l_count - 1 in
        if first > last then ok := false;
        for k = first to last do
          for i = 0 to d - 1 do
            if
              Vec.get down.l_lo ((k * d) + i) < Vec.get up.l_lo ((j * d) + i)
              || Vec.get down.l_hi ((k * d) + i)
                 > Vec.get up.l_hi ((j * d) + i)
            then ok := false
          done
        done
      done
    done;
    if t.t_levels.(Array.length t.t_levels - 1).l_count <> 1 then ok := false
  end
  else if t.t_n <> 0 then ok := false;
  !ok
