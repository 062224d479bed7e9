(* Unit and property tests for the dual-simplex LP engine: one-shot
   [Lp.solve] cases, [Lp.Live] handles, and properties checked against a
   brute-force vertex-enumeration oracle that shares no code with the
   engine. *)

module Lp = Indq_lp.Lp
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

let vec = Vec.of_array

let check_float = Alcotest.(check (float 1e-6))

let maximize ~n ~objective cs = Lp.solve ~n ~objective `Maximize cs

let minimize ~n ~objective cs = Lp.solve ~n ~objective `Minimize cs

let solve_max ~n ~objective cs =
  match maximize ~n ~objective cs with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Lp.Failed e -> Alcotest.fail ("unexpected failure: " ^ Lp.error_message e)

let solve_min ~n ~objective cs =
  match minimize ~n ~objective cs with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Lp.Failed e -> Alcotest.fail ("unexpected failure: " ^ Lp.error_message e)

(* max x + y st x + 2y <= 4, 3x + y <= 6 -> optimum at (1.6, 1.2), value 2.8 *)
let test_textbook_max () =
  let cs =
    [ Lp.constr (vec [| 1.; 2. |]) Lp.Le 4.; Lp.constr (vec [| 3.; 1. |]) Lp.Le 6. ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 1. |]) cs in
  check_float "value" 2.8 s.objective;
  check_float "x" 1.6 (Vec.get s.point 0);
  check_float "y" 1.2 (Vec.get s.point 1)

(* min 2x + 3y st x + y >= 4, x >= 1 -> optimum at (4, 0), value 8 *)
let test_textbook_min () =
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Ge 4.; Lp.constr (vec [| 1.; 0. |]) Lp.Ge 1. ]
  in
  let s = solve_min ~n:2 ~objective:(vec [| 2.; 3. |]) cs in
  check_float "value" 8. s.objective;
  check_float "x" 4. (Vec.get s.point 0);
  check_float "y" 0. (Vec.get s.point 1)

let test_equality_constraint () =
  (* max x st x + y = 1 -> x = 1 *)
  let cs = [ Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1. ] in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 0. |]) cs in
  check_float "value" 1. s.objective;
  check_float "y" 0. (Vec.get s.point 1)

let test_infeasible () =
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Le 1.; Lp.constr (vec [| 1.; 1. |]) Lp.Ge 2. ]
  in
  match maximize ~n:2 ~objective:(vec [| 1.; 0. |]) cs with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let cs = [ Lp.constr (vec [| 1.; -1. |]) Lp.Le 1. ] in
  match maximize ~n:2 ~objective:(vec [| 1.; 1. |]) cs with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_no_constraints_min () =
  match minimize ~n:3 ~objective:(vec [| 1.; 2.; 3. |]) [] with
  | Lp.Optimal s -> check_float "value" 0. s.objective
  | _ -> Alcotest.fail "expected optimal at origin"

let test_no_constraints_unbounded () =
  match maximize ~n:2 ~objective:(vec [| 1.; 0. |]) [] with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs_normalization () =
  (* x - y <= -1 means y >= x + 1; max x st also y <= 2 -> x = 1. *)
  let cs =
    [ Lp.constr (vec [| 1.; -1. |]) Lp.Le (-1.); Lp.constr (vec [| 0.; 1. |]) Lp.Le 2. ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 0. |]) cs in
  check_float "value" 1. s.objective

let test_degenerate_vertex () =
  (* Three constraints meeting at one vertex; Bland's rule must not cycle. *)
  let cs =
    [
      Lp.constr (vec [| 1.; 1. |]) Lp.Le 2.;
      Lp.constr (vec [| 1.; 0. |]) Lp.Le 1.;
      Lp.constr (vec [| 0.; 1. |]) Lp.Le 1.;
    ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 1. |]) cs in
  check_float "value" 2. s.objective

let test_simplex_vertex_objective () =
  (* Over the probability simplex, max c.x is max_i c_i. *)
  let cs = [ Lp.constr (vec [| 1.; 1.; 1. |]) Lp.Eq 1. ] in
  let s = solve_max ~n:3 ~objective:(vec [| 0.3; 0.9; 0.5 |]) cs in
  check_float "value" 0.9 s.objective;
  check_float "x1" 1. (Vec.get s.point 1)

let test_redundant_equalities () =
  (* Duplicate equality rows leave a basic artificial on a zero row; the
     solver must still answer. *)
  let cs =
    [
      Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.;
      Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.;
      Lp.constr (vec [| 2.; 2. |]) Lp.Eq 2.;
    ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 2. |]) cs in
  check_float "value" 2. s.objective

let test_feasible_point () =
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.; Lp.constr (vec [| 1.; -1. |]) Lp.Ge 0. ]
  in
  match Lp.Live.create ~n:2 cs with
  | `Feasible h ->
    let p = Lp.Live.point h in
    check_float "sum" 1. (Vec.get p 0 +. Vec.get p 1);
    Alcotest.(check bool) "x >= y" true (Vec.get p 0 >= Vec.get p 1 -. 1e-9)
  | `Infeasible | `Failed _ -> Alcotest.fail "should be feasible"

let test_ge_with_positive_rhs () =
  (* Exercises the artificial-variable path (Ge rows with rhs > 0 cannot be
     rewritten as Le rows). *)
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Ge 2.; Lp.constr (vec [| 1.; 0. |]) Lp.Le 1.5 ]
  in
  let s = solve_min ~n:2 ~objective:(vec [| 3.; 1. |]) cs in
  (* min 3x + y st x + y >= 2, x <= 1.5 -> all weight on y: (0, 2). *)
  check_float "value" 2. s.objective;
  check_float "y" 2. (Vec.get s.point 1)

let test_mixed_equalities_phase1 () =
  (* x + y = 1 and x - y = 0.5 pin (0.75, 0.25); objective irrelevant. *)
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.; Lp.constr (vec [| 1.; -1. |]) Lp.Eq 0.5 ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 7. |]) cs in
  check_float "x" 0.75 (Vec.get s.point 0);
  check_float "y" 0.25 (Vec.get s.point 1)

let test_zero_rhs_ge_rewrite () =
  (* w . x >= 0 cuts are the hot path; check they behave like constraints,
     not like no-ops: max y st y - x <= 0 (i.e. x - y >= 0), x <= 1. *)
  let cs =
    [ Lp.constr (vec [| 1.; -1. |]) Lp.Ge 0.; Lp.constr (vec [| 1.; 0. |]) Lp.Le 1. ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 0.; 1. |]) cs in
  check_float "y bounded by x" 1. s.objective

let test_invalid_inputs () =
  Alcotest.check_raises "bad objective length" (Invalid_argument "Lp: objective length <> n")
    (fun () -> ignore (maximize ~n:2 ~objective:(vec [| 1. |]) []));
  Alcotest.check_raises "bad constraint length"
    (Invalid_argument "Lp: constraint coefficient length <> n") (fun () ->
      ignore (maximize ~n:2 ~objective:(vec [| 1.; 1. |]) [ Lp.constr (vec [| 1. |]) Lp.Le 1. ]))

(* Property: on random bounded problems, the reported optimum is feasible and
   no random feasible point beats it. *)
let random_bounded_problem rng =
  let n = 2 + Rng.int rng 3 in
  let m = 1 + Rng.int rng 5 in
  (* Box plus random <= cuts keeps the problem bounded and feasible at 0. *)
  let box =
    List.init n (fun i ->
        let coeffs = Vec.init n (fun j -> if i = j then 1. else 0.) in
        Lp.constr coeffs Lp.Le (0.5 +. Rng.uniform rng))
  in
  let cuts =
    List.init m (fun _ ->
        let coeffs = Vec.init n (fun _ -> Rng.uniform rng) in
        Lp.constr coeffs Lp.Le (0.1 +. Rng.uniform rng))
  in
  let objective = Vec.init n (fun _ -> Rng.in_range rng (-1.) 1.) in
  (n, objective, box @ cuts)

let prop_optimal_dominates_samples =
  QCheck2.Test.make ~count:100 ~name:"lp optimum beats random feasible points"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      match maximize ~n ~objective cs with
      | Lp.Unbounded -> false (* impossible: box-bounded *)
      | Lp.Infeasible -> false (* impossible: origin feasible *)
      | Lp.Failed _ -> false (* impossible: tiny well-posed problem *)
      | Lp.Optimal { objective = best; point } ->
        let feasible p =
          List.for_all
            (fun (c : Lp.constr) ->
              match c.relation with
              | Lp.Le -> Vec.dot c.coeffs p <= c.rhs +. 1e-6
              | Lp.Ge -> Vec.dot c.coeffs p >= c.rhs -. 1e-6
              | Lp.Eq -> Float.abs (Vec.dot c.coeffs p -. c.rhs) <= 1e-6)
            cs
          && Vec.for_all (fun x -> x >= -1e-9) p
        in
        if not (feasible point) then false
        else begin
          (* Random feasible candidates obtained by scaling random rays until
             feasible; none may exceed the optimum. *)
          let ok = ref true in
          for _ = 1 to 30 do
            let p = Vec.init n (fun _ -> Rng.uniform rng *. 0.2) in
            if feasible p && Vec.dot objective p > best +. 1e-6 then
              ok := false
          done;
          !ok
        end)

(* Brute-force reference: the optimum of a bounded LP over [x >= 0] is
   attained at a vertex, and every vertex is a basic solution — the
   intersection of [n] linearly independent hyperplanes drawn from the
   constraint rows (as equalities) and the bounds [x_i = 0].  Enumerate
   every such [n]-subset, solve it by Gaussian elimination with partial
   pivoting, keep the feasible points and take the best.  Exponential, so
   only for n <= 4 and a dozen rows; no simplex code is shared with the
   engine under test. *)
let solve_dense a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let exception Singular in
  try
    for col = 0 to n - 1 do
      let p = ref col in
      for r = col + 1 to n - 1 do
        if Float.abs a.(r).(col) > Float.abs a.(!p).(col) then p := r
      done;
      if Float.abs a.(!p).(col) < 1e-10 then raise Singular;
      let tmp = a.(col) in
      a.(col) <- a.(!p);
      a.(!p) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!p);
      b.(!p) <- tb;
      for r = 0 to n - 1 do
        if r <> col then begin
          let f = a.(r).(col) /. a.(col).(col) in
          for c = col to n - 1 do
            a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (f *. b.(col))
        end
      done
    done;
    Some (Array.init n (fun i -> b.(i) /. a.(i).(i)))
  with Singular -> None

let brute_force_max ~n ~objective cs =
  let tol = 1e-7 in
  let dot coeffs x =
    let acc = ref 0. in
    Array.iteri (fun i xi -> acc := !acc +. (Vec.get coeffs i *. xi)) x;
    !acc
  in
  let feasible x =
    Array.for_all (fun xi -> xi >= -.tol) x
    && List.for_all
         (fun (c : Lp.constr) ->
           let v = dot c.coeffs x in
           match c.relation with
           | Lp.Le -> v <= c.rhs +. tol
           | Lp.Ge -> v >= c.rhs -. tol
           | Lp.Eq -> Float.abs (v -. c.rhs) <= tol)
         cs
  in
  let hyperplanes =
    Array.of_list
      (List.map
         (fun (c : Lp.constr) -> (Array.init n (Vec.get c.coeffs), c.rhs))
         cs
      @ List.init n (fun i -> (Array.init n (fun j -> if i = j then 1. else 0.), 0.)))
  in
  let best = ref None in
  let rec choose start picked k =
    if k = 0 then begin
      let rows = Array.of_list (List.rev picked) in
      match
        solve_dense
          (Array.map (fun i -> fst hyperplanes.(i)) rows)
          (Array.map (fun i -> snd hyperplanes.(i)) rows)
      with
      | Some x when feasible x ->
        let v = dot objective x in
        (match !best with Some b when b >= v -> () | _ -> best := Some v)
      | _ -> ()
    end
    else
      for i = start to Array.length hyperplanes - k do
        choose (i + 1) (i :: picked) (k - 1)
      done
  in
  choose 0 [] n;
  !best

(* The live dual-simplex path against the oracle: optimizing any bounded
   problem through a Live handle returns the same verdict and optimum as
   vertex enumeration, both before and after adding one halfspace the
   dual-simplex way. *)
let random_extra_cut rng n =
  let coeffs = Vec.init n (fun _ -> Rng.in_range rng (-0.5) 1.) in
  Lp.constr coeffs Lp.Le (Rng.in_range rng (-0.05) 0.4)

let prop_live_matches_brute_force =
  QCheck2.Test.make ~count:80 ~name:"live optimize: same verdict and optimum"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      match Lp.Live.create ~n cs with
      | `Infeasible | `Failed _ -> false (* impossible: origin feasible *)
      | `Feasible h -> (
        match
          (Lp.Live.optimize h ~objective `Maximize, brute_force_max ~n ~objective cs)
        with
        | Lp.Optimal live, Some best -> Float.abs (live.objective -. best) < 1e-6
        | _ -> false))

let prop_add_cut_matches_brute_force =
  QCheck2.Test.make ~count:80
    ~name:"live add_cut: dual verdict and optimum match brute force"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      let cut = random_extra_cut rng n in
      let cs' = cs @ [ cut ] in
      match Lp.Live.create ~n cs with
      | `Infeasible | `Failed _ -> false
      | `Feasible h -> (
        match Lp.Live.optimize h ~objective `Maximize with
        | Lp.Optimal _ -> (
          match (Lp.Live.add_cut h cut, brute_force_max ~n ~objective cs') with
          | (`Sat | `Reopt _), Some best -> (
            match Lp.Live.optimize h ~objective `Maximize with
            | Lp.Optimal live -> Float.abs (live.objective -. best) < 1e-6
            | _ -> false)
          | `Infeasible, None -> true
          | _ -> false)
        | _ -> false))

(* Replay determinism: the dual path is a pure function of its inputs, so
   re-running the identical create / optimize / add_cut / optimize sequence
   must reproduce the optimum bit-for-bit. *)
let prop_live_replay_bit_equal =
  QCheck2.Test.make ~count:60 ~name:"live replay is bit-identical"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let run () =
        let rng = Rng.create seed in
        let n, objective, cs = random_bounded_problem rng in
        let cut = random_extra_cut rng n in
        match Lp.Live.create ~n cs with
        | `Infeasible | `Failed _ -> None
        | `Feasible h -> (
          match Lp.Live.add_cut h cut with
          | `Infeasible | `Failed _ -> Some nan
          | `Sat | `Reopt _ -> (
            match Lp.Live.optimize h ~objective `Maximize with
            | Lp.Optimal s -> Some s.objective
            | _ -> None))
      in
      match (run (), run ()) with
      | Some a, Some b ->
        (Float.is_nan a && Float.is_nan b)
        || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      | None, None -> true
      | _ -> false)

(* Forking: a copy refines independently and the parent's standing basis
   (hence its answers) is untouched by cuts added to the fork. *)
let test_live_copy_isolation () =
  let cs =
    [ Lp.constr (vec [| 1.; 2. |]) Lp.Le 4.; Lp.constr (vec [| 3.; 1. |]) Lp.Le 6. ]
  in
  match Lp.Live.create ~n:2 cs with
  | `Infeasible | `Failed _ -> Alcotest.fail "textbook problem is feasible"
  | `Feasible parent -> (
    let fork = Lp.Live.copy parent in
    (match Lp.Live.add_cut fork (Lp.constr (vec [| 1.; 0. |]) Lp.Le 0.5) with
    | `Sat | `Reopt _ -> ()
    | `Infeasible | `Failed _ -> Alcotest.fail "fork cut is satisfiable");
    match
      ( Lp.Live.optimize parent ~objective:(vec [| 1.; 1. |]) `Maximize,
        Lp.Live.optimize fork ~objective:(vec [| 1.; 1. |]) `Maximize )
    with
    | Lp.Optimal p, Lp.Optimal f ->
      check_float "parent unchanged" 2.8 p.objective;
      Alcotest.(check bool) "fork tighter" true (f.objective < 2.8 -. 1e-9)
    | _ -> Alcotest.fail "both solves are bounded and feasible")

(* Long cut chains on the simplex [sum x = 1, x >= 0] at d = 4..6, each
   cut through an interior point so the chain stays feasible, with a few
   [Eq] cuts (two appended rows each).  Forks take one spare row, so a
   chain crosses row growth in forks over and over. *)
let chain_cut rng d p ~eq =
  let coeffs = Vec.init d (fun _ -> Rng.in_range rng (-1.) 1.) in
  let at_p = Vec.dot coeffs p in
  if eq then Lp.constr coeffs Lp.Eq at_p
  else if Rng.bool rng then Lp.constr coeffs Lp.Le (at_p +. Rng.float rng 0.1)
  else Lp.constr coeffs Lp.Ge (at_p -. Rng.float rng 0.1)

(* Every fork of a 40-plus-cut chain answers as [Lp.solve] from scratch
   does (same verdict, value within 1e-6), and a fork's [add_cut] leaves
   its parent's standing basis untouched. *)
let prop_long_chain_forks =
  QCheck2.Test.make ~count:20 ~name:"long cut chains: forks match Lp.solve"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 4 + Rng.int rng 3 in
      let p = Vec.init d (fun _ -> 0.5 +. Rng.uniform rng) in
      let p = Vec.scale (1. /. Vec.sum p) p in
      let root = [ Lp.constr (Vec.make d 1.) Lp.Eq 1. ] in
      let eq_at = [ 7 + Rng.int rng 10; 25 + Rng.int rng 10 ] in
      let cuts = List.init 44 (fun i -> chain_cut rng d p ~eq:(List.mem i eq_at)) in
      (* A final cut no point of the simplex meets: both sides must say
         Infeasible. *)
      let cuts = cuts @ [ Lp.constr (Vec.basis d 0) Lp.Ge 2. ] in
      let bits (s : Lp.solution) =
        Int64.bits_of_float s.objective
        :: List.map Int64.bits_of_float (Array.to_list (Vec.to_array s.point))
      in
      match Lp.Live.create ~n:d root with
      | `Infeasible | `Failed _ -> false
      | `Feasible h ->
        let ok = ref true and live = ref (Some h) and seen = ref root in
        List.iter
          (fun cut ->
            match !live with
            | None -> ()
            | Some parent ->
              let objective = Vec.init d (fun _ -> Rng.in_range rng (-1.) 1.) in
              let answer h =
                Lp.Live.optimize (Lp.Live.copy h) ~objective `Maximize
              in
              let before = answer parent in
              let fork = Lp.Live.copy parent in
              let verdict = Lp.Live.add_cut fork cut in
              (* The parent is untouched: the same bits as before. *)
              (match (before, answer parent) with
              | Lp.Optimal a, Lp.Optimal b -> if bits a <> bits b then ok := false
              | _ -> ok := false);
              seen := !seen @ [ cut ];
              let scratch = Lp.solve ~n:d ~objective `Maximize !seen in
              match verdict with
              | `Sat | `Reopt _ -> (
                match (answer fork, scratch) with
                | Lp.Optimal a, Lp.Optimal b ->
                  if Float.abs (a.objective -. b.objective) > 1e-6 then ok := false;
                  live := Some fork
                | _ -> ok := false)
              | `Infeasible ->
                if scratch <> Lp.Infeasible then ok := false;
                live := None
              | `Failed _ -> ok := false)
          cuts;
        !ok && !live = None)

let prop_minimize_is_negated_maximize =
  QCheck2.Test.make ~count:60 ~name:"min f = -max(-f)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      let neg = Vec.neg objective in
      match (minimize ~n ~objective cs, maximize ~n ~objective:neg cs) with
      | Lp.Optimal a, Lp.Optimal b -> Float.abs (a.objective +. b.objective) < 1e-6
      | Lp.Infeasible, Lp.Infeasible -> true
      | Lp.Unbounded, Lp.Unbounded -> true
      | _ -> false)

let () =
  Alcotest.run "lp"
    [
      ( "simplex-solver",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "textbook min" `Quick test_textbook_min;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "no constraints min" `Quick test_no_constraints_min;
          Alcotest.test_case "no constraints unbounded" `Quick
            test_no_constraints_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalization;
          Alcotest.test_case "degenerate vertex" `Quick test_degenerate_vertex;
          Alcotest.test_case "simplex vertex" `Quick test_simplex_vertex_objective;
          Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
          Alcotest.test_case "feasible point" `Quick test_feasible_point;
          Alcotest.test_case "ge with positive rhs" `Quick test_ge_with_positive_rhs;
          Alcotest.test_case "mixed equalities" `Quick test_mixed_equalities_phase1;
          Alcotest.test_case "zero-rhs ge rewrite" `Quick test_zero_rhs_ge_rewrite;
          Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
          Alcotest.test_case "live copy isolation" `Quick test_live_copy_isolation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_optimal_dominates_samples;
          QCheck_alcotest.to_alcotest prop_minimize_is_negated_maximize;
          QCheck_alcotest.to_alcotest prop_live_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_add_cut_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_live_replay_bit_equal;
          QCheck_alcotest.to_alcotest prop_long_chain_forks;
        ] );
    ]
