(* Tests for the deterministic fault-injection layer (Indq_fault) and for
   every armed site's recovery path: typed LP failures with the Bland
   continuation and the polytope's tableau rebuild, dataset load errors,
   oracle contradictions absorbed by the region machinery, and
   worker-death chunk retries in the pool.

   The fault matrix at the bottom is also the CI entry point: the plan seed
   comes from INDQ_FAULT_SEED when set, so the workflow can sweep seeds
   without rebuilding. *)

module Fault = Indq_fault.Fault
module Counter = Indq_obs.Counter
module Lp = Indq_lp.Lp
module Polytope = Indq_geom.Polytope
module Halfspace = Indq_geom.Halfspace
module Dataset = Indq_dataset.Dataset
module Generator = Indq_dataset.Generator
module Oracle = Indq_user.Oracle
module Utility = Indq_user.Utility
module Algo = Indq_core.Algo
module Pool = Indq_exec.Pool
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec
module Session = Indq_core.Session
module Wire = Indq_server.Wire
module Journal_store = Indq_server.Journal_store
module Engine = Indq_server.Engine

let vec = Vec.of_array

let temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let sample_hello id =
  {
    Wire.id;
    algo = Algo.Squeeze_u;
    data = "independent";
    n = 30;
    d = 2;
    seed = 5;
    s = 0;
    q = 0;
    eps = 0.;
    delta = 0.;
  }

(* Per-test counter deltas, all on the test's own domain (the pool folds
   worker counters back here before parallel_map returns). *)
let counted f =
  let names =
    [
      "fault.injected"; "retry.attempts"; "retry.exhausted"; "lp.failures";
      "region.collapses"; "prune.degraded"; "squeeze_u2.widened_restarts";
      "oracle.questions"; "serve.sync_failures"; "journal.torn_tail";
    ]
  in
  let before = List.map (fun n -> (n, Counter.get n)) names in
  let result = f () in
  let delta name =
    Counter.get name -. List.assoc name before
  in
  (result, delta)

let check_delta what expected delta = Alcotest.(check (float 0.)) what expected delta

(* --- plan and trigger semantics --------------------------------------- *)

let fires_of trigger reaches =
  Fault.with_plan
    (Fault.plan [ ("inject.dataset_load", trigger) ])
    (fun () ->
      List.init reaches (fun _ -> Fault.fire "inject.dataset_load"))

let test_triggers () =
  Alcotest.(check (list bool))
    "never" [ false; false; false ] (fires_of Fault.Never 3);
  Alcotest.(check (list bool))
    "once@2" [ false; true; false; false ]
    (fires_of (Fault.Once 2) 4);
  Alcotest.(check (list bool))
    "every 2" [ false; true; false; true ]
    (fires_of (Fault.Every 2) 4);
  Alcotest.(check (list bool))
    "after 2" [ false; false; true; true ]
    (fires_of (Fault.After 2) 4);
  Alcotest.(check (list bool)) "always" [ true; true ] (fires_of Fault.Always 2)

let test_plan_basics () =
  (* Unarmed process: every site is quiet. *)
  Alcotest.(check bool) "disarmed" false (Fault.fire "inject.dataset_load");
  Alcotest.(check bool) "not armed" false (Fault.armed ());
  (* Unknown sites are rejected at plan construction and at armed fire. *)
  Alcotest.check_raises "bad plan site"
    (Invalid_argument "Fault.plan: unknown site inject.nonsense") (fun () ->
      ignore (Fault.plan [ ("inject.nonsense", Fault.Always) ]));
  Fault.with_plan (Fault.plan [])
    (fun () ->
      Alcotest.check_raises "bad fire site"
        (Invalid_argument "Fault.fire: unknown site inject.nonsense")
        (fun () -> ignore (Fault.fire "inject.nonsense")));
  (* Nesting restores the outer plan; injections are tracked per plan. *)
  Fault.with_plan (Fault.plan [ ("inject.dataset_load", Fault.Always) ])
    (fun () ->
      ignore (Fault.fire "inject.dataset_load");
      Alcotest.(check int) "counted" 1
        (Fault.injections "inject.dataset_load");
      Fault.with_plan (Fault.plan []) (fun () ->
          Alcotest.(check bool) "inner quiet" false
            (Fault.fire "inject.dataset_load");
          Alcotest.(check int) "inner fresh" 0
            (Fault.injections "inject.dataset_load"));
      Alcotest.(check bool) "outer restored" true
        (Fault.fire "inject.dataset_load");
      Alcotest.(check int) "outer kept counting" 2
        (Fault.injections "inject.dataset_load"));
  Alcotest.(check bool) "disarmed again" false (Fault.armed ())

let test_random_plan_deterministic () =
  let p1 = Fault.random_plan ~seed:42 and p2 = Fault.random_plan ~seed:42 in
  Alcotest.(check bool) "same seed same plan" true (p1 = p2);
  Alcotest.(check (list string)) "arms every site" Fault.site_names
    (List.map fst p1.Fault.arms);
  List.iter
    (fun (_, trigger) ->
      match trigger with
      | Fault.Once k ->
        Alcotest.(check bool) "reachable reach" true (k >= 1 && k <= 4)
      | _ -> Alcotest.fail "random plans arm Once triggers")
    p1.Fault.arms

(* --- LP: budget exhaustion, Bland continuation, typed failures ---------- *)

let lp_constraints =
  [
    { Lp.coeffs = vec [| 1.; 2. |]; relation = Lp.Le; rhs = 4. };
    { Lp.coeffs = vec [| 3.; 1. |]; relation = Lp.Le; rhs = 6. };
  ]

let lp_solve ?max_pivots () =
  Lp.solve ?max_pivots ~n:2 ~objective:(vec [| 1.; 1. |]) `Maximize lp_constraints

let test_lp_iteration_cap_recovers () =
  let clean =
    match lp_solve () with
    | Lp.Optimal s -> s
    | _ -> Alcotest.fail "clean solve must be optimal"
  in
  let result, delta =
    counted (fun () ->
        Fault.with_plan
          (Fault.plan [ ("inject.lp_iteration_cap", Fault.Once 1) ])
          (fun () -> lp_solve ()))
  in
  (match result with
  | Lp.Optimal s ->
    Alcotest.(check (float 0.)) "same objective" clean.Lp.objective
      s.Lp.objective;
    Alcotest.(check (array (float 0.))) "same point"
      (Vec.to_array clean.Lp.point) (Vec.to_array s.Lp.point)
  | _ -> Alcotest.fail "Bland continuation must recover the optimum");
  check_delta "one injection" 1. (delta "fault.injected");
  check_delta "one fallback" 1. (delta "retry.attempts");
  check_delta "not exhausted" 0. (delta "retry.exhausted");
  check_delta "no failure" 0. (delta "lp.failures")

let test_lp_nan_pivot_fails_typed () =
  let result, delta =
    counted (fun () ->
        Fault.with_plan
          (Fault.plan [ ("inject.lp_nan_pivot", Fault.Once 1) ])
          (fun () -> lp_solve ()))
  in
  (match result with
  | Lp.Failed (Lp.Numerical _) -> ()
  | _ -> Alcotest.fail "planted NaN must surface as Failed (Numerical _)");
  check_delta "one injection" 1. (delta "fault.injected");
  check_delta "one failure" 1. (delta "lp.failures")

let test_lp_budget_exhaustion_typed () =
  let result, delta = counted (fun () -> lp_solve ~max_pivots:0 ()) in
  (match result with
  | Lp.Failed (Lp.Iteration_limit { budget = 0 }) -> ()
  | _ -> Alcotest.fail "zero budget must surface as Iteration_limit");
  check_delta "fallback tried" 1. (delta "retry.attempts");
  check_delta "fallback exhausted" 1. (delta "retry.exhausted");
  check_delta "one failure" 1. (delta "lp.failures");
  check_delta "no injection" 0. (delta "fault.injected")

(* A failed replay step is rebuilt, not guessed: with the cap armed, the
   first [add_cut] of the region's cut chain (x1 >= 1/4 is violated at the
   root vertex, so it needs a dual pivot) exhausts its collapsed budget,
   and the polytope rebuilds that node's tableau from its full constraint
   list.  The cuts are dyadic, so every extreme is exact on either
   tableau and the region must answer bit for bit as when unfaulted. *)
let test_replay_failure_rebuilds () =
  let cuts =
    [ Halfspace.ge (vec [| 0.; 1.; 0. |]) 0.25;
      Halfspace.ge (vec [| 0.; 0.; 1. |]) 0.125 ]
  in
  let answers () =
    let r = Polytope.cut_many (Polytope.simplex 3) cuts in
    ( Polytope.is_empty r,
      Polytope.coordinate_bounds r,
      Polytope.width r,
      Polytope.diameter r )
  in
  let clean = answers () in
  let solves_before = Counter.get "lp.solves" in
  let faulted, delta =
    counted (fun () ->
        Fault.with_plan
          (Fault.plan [ ("inject.lp_iteration_cap", Fault.Once 1) ])
          answers)
  in
  Alcotest.(check bool) "same answers" true (faulted = clean);
  check_delta "one injection" 1. (delta "fault.injected");
  check_delta "one rebuild" 1. (Counter.get "lp.solves" -. solves_before);
  check_delta "no failure" 0. (delta "lp.failures")

let test_lp_error_messages () =
  Alcotest.(check bool) "iteration message" true
    (String.length (Lp.error_message (Lp.Iteration_limit { budget = 7 })) > 0);
  Alcotest.(check bool) "numerical message" true
    (String.length (Lp.error_message (Lp.Numerical { detail = "x" })) > 0)

(* --- dataset load ------------------------------------------------------- *)

let test_dataset_load_injection () =
  let csv = "0,1,0.5\n1,0.25,1\n" in
  let results, delta =
    counted (fun () ->
        Fault.with_plan
          (Fault.plan [ ("inject.dataset_load", Fault.Once 2) ])
          (fun () ->
            List.init 3 (fun _ ->
                match Dataset.of_csv csv with
                | d -> `Loaded (Dataset.size d)
                | exception Dataset.Load_error e -> `Error e.Dataset.reason)))
  in
  (match results with
  | [ `Loaded 2; `Error reason; `Loaded 2 ] ->
    Alcotest.(check string) "reason" "injected fault: source unreadable" reason
  | _ -> Alcotest.fail "exactly the second load must fail");
  check_delta "one injection" 1. (delta "fault.injected")

(* --- oracle contradiction: region degradation --------------------------- *)

let contradiction_run ?(algo = Algo.Uh_random) ?(delta = 0.) ~seed trigger =
  let rng = Rng.create seed in
  let data = Generator.anti_correlated rng ~n:120 ~d:2 in
  let d = Dataset.dim data in
  let u = Utility.random rng ~d in
  let oracle =
    if delta > 0. then Oracle.with_error ~delta ~rng:(Rng.split rng) u
    else Oracle.exact u
  in
  let config = { (Algo.default_config ~d) with Algo.delta } in
  Fault.with_plan
    (Fault.plan [ ("inject.oracle_contradiction", trigger) ])
    (fun () -> Algo.run algo config ~data ~oracle ~rng:(Rng.split rng))

let test_oracle_contradiction_degrades () =
  (* A user who always picks the *worst* option produces answers that are
     jointly infeasible within a few rounds; the run must complete with a
     non-empty output and count the collapsed rounds it refused to commit. *)
  let result, delta =
    counted (fun () -> contradiction_run ~seed:11 Fault.Always)
  in
  Alcotest.(check bool) "completed with output" true
    (Dataset.size result.Algo.output >= 1);
  check_delta "every question lied" (delta "oracle.questions")
    (delta "fault.injected");
  Alcotest.(check bool) "collapses detected and absorbed" true
    (delta "region.collapses" >= 1.)

let test_oracle_single_lie_recovers () =
  let result, delta =
    counted (fun () -> contradiction_run ~seed:13 (Fault.Once 2))
  in
  Alcotest.(check bool) "completed with output" true
    (Dataset.size result.Algo.output >= 1);
  check_delta "one injection" 1. (delta "fault.injected")

let test_squeeze_widened_restart () =
  (* Squeeze-u2's interval ladder: a lying user drives lo past hi, which
     must trigger the ε-widened restart instead of an inverted interval. *)
  let result, delta =
    counted (fun () ->
        contradiction_run ~algo:Algo.Squeeze_u ~delta:0.05 ~seed:5 Fault.Always)
  in
  Alcotest.(check bool) "completed with output" true
    (Dataset.size result.Algo.output >= 1);
  Alcotest.(check bool) "widened restarts fired" true
    (delta "squeeze_u2.widened_restarts" >= 1.)

(* --- pool worker death: chunk retry, bit-identical output --------------- *)

let pool_input = Array.init 48 (fun i -> i)

let pool_f i = (i * 31) mod 97

let test_worker_death_retries () =
  let expected = Array.map pool_f pool_input in
  Pool.with_pool ~domains:2 (fun pool ->
      let out, delta =
        counted (fun () ->
            Fault.with_plan
              (Fault.plan [ ("inject.worker_death", Fault.Once 3) ])
              (fun () -> Pool.parallel_map ~chunks:8 pool pool_f pool_input))
      in
      Alcotest.(check (array int)) "bit-identical output" expected out;
      check_delta "one death" 1. (delta "fault.injected");
      check_delta "one retry" 1. (delta "retry.attempts");
      check_delta "not exhausted" 0. (delta "retry.exhausted"))

let test_worker_death_exhaustion () =
  Pool.with_pool ~domains:2 (fun pool ->
      let result, delta =
        counted (fun () ->
            Fault.with_plan
              (Fault.plan [ ("inject.worker_death", Fault.Always) ])
              (fun () ->
                match Pool.parallel_map ~chunks:4 pool pool_f pool_input with
                | _ -> `Completed
                | exception Fault.Injected site -> `Died site))
      in
      Alcotest.(check bool) "typed exhaustion" true
        (result = `Died "inject.worker_death");
      (* 4 chunks x 3 attempts each, all exhausted: the accounting is exact
         and deterministic. *)
      check_delta "deaths" 12. (delta "fault.injected");
      check_delta "retries" 8. (delta "retry.attempts");
      check_delta "exhaustions" 4. (delta "retry.exhausted"))

let test_worker_death_seeded_identical () =
  (* parallel_map_seeded under a mid-run death must reproduce the fault-free
     results exactly: per-task RNGs are pre-split, so the retried chunk
     replays the same streams. *)
  let f rng x = float_of_int x +. Rng.float rng 1.0 in
  let run plan =
    Pool.with_pool ~domains:2 (fun pool ->
        Fault.with_plan_opt plan (fun () ->
            Pool.parallel_map_seeded ~chunks:6 pool ~rng:(Rng.create 99) f
              pool_input))
  in
  let clean = run None in
  let faulted =
    run (Some (Fault.plan [ ("inject.worker_death", Fault.Once 2) ]))
  in
  Alcotest.(check (array (float 0.))) "bit-identical streams" clean faulted

(* --- the fault matrix: every site, exact plan accounting ---------------- *)

(* CI sweeps plan seeds via the environment; local runs get the default. *)
let matrix_seed =
  match Sys.getenv_opt "INDQ_FAULT_SEED" with
  | Some s -> int_of_string s
  | None -> 2024

let reaches_for_once = 6

let test_fault_matrix () =
  let plan = Fault.random_plan ~seed:matrix_seed in
  List.iter
    (fun (site, trigger) ->
      let single = Fault.plan ~seed:matrix_seed [ (site, trigger) ] in
      let outcome_ok, delta =
        counted (fun () ->
            Fault.with_plan single (fun () ->
                match site with
                | "inject.dataset_load" ->
                  let results =
                    List.init reaches_for_once (fun _ ->
                        match Dataset.of_csv "0,1,2\n1,3,4\n" with
                        | _ -> `Ok
                        | exception Dataset.Load_error _ -> `Typed)
                  in
                  List.length (List.filter (( = ) `Typed) results) = 1
                | "inject.lp_iteration_cap" ->
                  List.for_all
                    (fun r -> match r with Lp.Optimal _ -> true | _ -> false)
                    (List.init reaches_for_once (fun _ -> lp_solve ()))
                | "inject.lp_nan_pivot" ->
                  let results =
                    List.init reaches_for_once (fun _ -> lp_solve ())
                  in
                  List.length
                    (List.filter
                       (fun r ->
                         match r with Lp.Failed (Lp.Numerical _) -> true | _ -> false)
                       results)
                  = 1
                | "inject.oracle_contradiction" ->
                  (* Re-arm inside: contradiction_run installs its own plan,
                     so drive the oracle directly here. *)
                  let u = vec [| 0.75; 0.25 |] in
                  let oracle = Oracle.exact u in
                  let options =
                    [| vec [| 1.; 0. |]; vec [| 0.; 1. |]; vec [| 0.5; 0.5 |] |]
                  in
                  let choices =
                    List.init reaches_for_once (fun _ ->
                        Oracle.choose oracle options)
                  in
                  (* The honest answer is index 0; the lie is the worst
                     option, index 1 — exactly once. *)
                  List.length (List.filter (( = ) 1) choices) = 1
                  && List.length (List.filter (( = ) 0) choices)
                     = reaches_for_once - 1
                | "inject.worker_death" ->
                  Pool.with_pool ~domains:2 (fun pool ->
                      Pool.parallel_map ~chunks:reaches_for_once pool pool_f
                        pool_input
                      = Array.map pool_f pool_input)
                | "inject.journal_sync" ->
                  (* Every fsync failure is absorbed: appends keep
                     succeeding and the records all land on disk. *)
                  let dir = temp_dir "indq-sync" in
                  let sink =
                    Journal_store.create ~dir ~fsync:Journal_store.Always
                      (sample_hello "sync")
                  in
                  let entries =
                    List.init (reaches_for_once - 1) (fun i ->
                        Session.Answered { round = i + 1; options = 2; choice = 0 })
                  in
                  List.iter (Journal_store.append sink) entries;
                  Journal_store.close sink;
                  (match Journal_store.load ~dir "sync" with
                  | Ok l ->
                    l.Journal_store.entries = entries
                    && not l.Journal_store.torn_tail
                  | Error _ -> false)
                | "inject.journal_torn_write" ->
                  (* A torn append poisons the sink; recovery is a reload
                     (dropping the torn tail) plus a rewriting reopen, after
                     which the failed record is appended again.  The final
                     journal must hold every record exactly once. *)
                  let dir = temp_dir "indq-torn" in
                  let torn = ref 0 in
                  (* A tear can land on the header write itself; creation is
                     atomic, so the recovery there is delete-and-retry. *)
                  let rec fresh () =
                    match
                      Journal_store.create ~dir ~fsync:Journal_store.Never
                        (sample_hello "torn")
                    with
                    | sink -> sink
                    | exception Journal_store.Torn _ ->
                      incr torn;
                      Sys.remove (Journal_store.path ~dir "torn");
                      fresh ()
                  in
                  let sink = ref (fresh ()) in
                  let entries =
                    List.init reaches_for_once (fun i ->
                        Session.Answered
                          { round = i + 1; options = 2; choice = 10 + i })
                  in
                  List.iter
                    (fun e ->
                      match Journal_store.append !sink e with
                      | () -> ()
                      | exception Journal_store.Torn _ -> (
                        incr torn;
                        Journal_store.close !sink;
                        match Journal_store.load ~dir "torn" with
                        | Ok loaded ->
                          sink :=
                            Journal_store.reopen ~dir
                              ~fsync:Journal_store.Never
                              ~rewrite:loaded.Journal_store.torn_tail loaded
                              "torn";
                          Journal_store.append !sink e
                        | Error _ ->
                          Alcotest.fail "torn journal failed to load"))
                    entries;
                  Journal_store.close !sink;
                  !torn = 1
                  &&
                  (match Journal_store.load ~dir "torn" with
                  | Ok l ->
                    l.Journal_store.entries = entries
                    && not l.Journal_store.torn_tail
                  | Error _ -> false)
                | "inject.client_disconnect" ->
                  (* The engine swallows the reply exactly once; session
                     state stays intact, so the following request sees the
                     same pending round. *)
                  let dir = temp_dir "indq-disc" in
                  let engine =
                    Engine.create
                      {
                        (Engine.default_config ~dir) with
                        Engine.fsync = Journal_store.Never;
                      }
                  in
                  let outcomes =
                    List.init reaches_for_once (fun i ->
                        Engine.handle engine
                          (if i = 0 then Wire.Hello (sample_hello "c")
                           else Wire.Ask { id = "c" }))
                  in
                  Engine.shutdown engine;
                  let dropped =
                    List.filter
                      (fun o -> match o with Engine.Disconnect -> true | _ -> false)
                      outcomes
                  in
                  List.length dropped = 1
                  && List.for_all
                       (fun o ->
                         match o with
                         | Engine.Disconnect
                         | Engine.Reply (Wire.R_ask _ | Wire.R_done _) ->
                           true
                         | _ -> false)
                       outcomes
                | other -> Alcotest.fail ("unknown site " ^ other)))
      in
      Alcotest.(check bool)
        (site ^ " recovered or surfaced typed error")
        true outcome_ok;
      check_delta (site ^ " injected exactly once") 1. (delta "fault.injected");
      if site = "inject.worker_death" then begin
        check_delta "death retried" 1. (delta "retry.attempts");
        check_delta "death not exhausted" 0. (delta "retry.exhausted")
      end;
      if site = "inject.journal_sync" then
        check_delta "sync failure absorbed" 1. (delta "serve.sync_failures"))
    plan.Fault.arms

let () =
  Alcotest.run "fault"
    [
      ( "plans",
        [
          Alcotest.test_case "trigger semantics" `Quick test_triggers;
          Alcotest.test_case "plan basics" `Quick test_plan_basics;
          Alcotest.test_case "random plan deterministic" `Quick
            test_random_plan_deterministic;
        ] );
      ( "lp",
        [
          Alcotest.test_case "iteration cap recovers" `Quick
            test_lp_iteration_cap_recovers;
          Alcotest.test_case "nan pivot fails typed" `Quick
            test_lp_nan_pivot_fails_typed;
          Alcotest.test_case "budget exhaustion typed" `Quick
            test_lp_budget_exhaustion_typed;
          Alcotest.test_case "error messages" `Quick test_lp_error_messages;
          Alcotest.test_case "replay failure rebuilds" `Quick
            test_replay_failure_rebuilds;
        ] );
      ( "dataset",
        [ Alcotest.test_case "load injection" `Quick test_dataset_load_injection ] );
      ( "oracle",
        [
          Alcotest.test_case "contradictions degrade" `Quick
            test_oracle_contradiction_degrades;
          Alcotest.test_case "single lie recovers" `Quick
            test_oracle_single_lie_recovers;
          Alcotest.test_case "squeeze widened restart" `Quick
            test_squeeze_widened_restart;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker death retries" `Quick
            test_worker_death_retries;
          Alcotest.test_case "worker death exhaustion" `Quick
            test_worker_death_exhaustion;
          Alcotest.test_case "seeded map identical" `Quick
            test_worker_death_seeded_identical;
        ] );
      ( "matrix",
        [ Alcotest.test_case "all sites" `Quick test_fault_matrix ] );
    ]
