(* indq-analyze fixture suite: each rule gets one racy/allocating snippet
   asserting the expected diagnostic and one safe twin asserting silence,
   plus suppression-scoping cases.  Snippets are typechecked in-process
   with compiler-libs (the same Typedtree the analyzer reads from .cmt
   files in production), so the fixtures exercise the real passes, not a
   mock.  The live tree itself is checked by `dune build @analyze`, which
   @runtest depends on. *)

module Analyze = Indq_analyze.Analyze

(* A stdlib-only stand-in for the repo's Indq_exec.Pool: the analyzer
   matches the [Pool.parallel_map] suffix, so a local module of that name
   marks task spawns without needing the full library in the fixture. *)
let pool_shim =
  {| module Pool = struct
       let parallel_map _pool f arr = Array.map f arr
     end |}

let initialized = lazy (Compmisc.init_path ())

let typecheck ~modname src =
  Lazy.force initialized;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf (modname ^ ".ml");
  let parsed = Parse.implementation lexbuf in
  let str, _sig, _names, _shape, _env = Typemod.type_structure env parsed in
  str

let codes ?(modname = "Fixture") src =
  let structure =
    try typecheck ~modname src
    with exn ->
      Location.report_exception Format.str_formatter exn;
      Alcotest.failf "fixture does not typecheck: %s"
        (Format.flush_str_formatter ())
  in
  let findings, _stats =
    Analyze.run
      [ { Analyze.in_modname = modname;
          in_file = modname ^ ".ml";
          in_structure = structure } ]
  in
  List.map (fun (f : Analyze.finding) -> f.code) findings

let check_codes name ~expect ?modname src () =
  Alcotest.(check (list string)) name expect (codes ?modname src)

(* --- ANA001: toplevel mutable reached from a pool task ------------------- *)

let ana001_racy =
  pool_shim
  ^ {| let cache : (int, int) Hashtbl.t = Hashtbl.create 8
       let task x = Hashtbl.replace cache x x; x
       let run pool xs = Pool.parallel_map pool task xs |}

(* Same shape, but every touch of the table sits under [Mutex.protect]:
   classified mutex-guarded, no finding. *)
let ana001_mutex_safe =
  pool_shim
  ^ {| let cache : (int, int) Hashtbl.t = Hashtbl.create 8
       let lock = Mutex.create ()
       let task x =
         Mutex.protect lock (fun () -> Hashtbl.replace cache x x);
         x
       let run pool xs = Pool.parallel_map pool task xs |}

(* Per-domain state behind a DLS key: classified DLS-keyed, no finding. *)
let ana001_dls_safe =
  pool_shim
  ^ {| let cache_key = Domain.DLS.new_key (fun () -> Hashtbl.create 8)
       let task x =
         Hashtbl.replace (Domain.DLS.get cache_key) x x;
         x
       let run pool xs = Pool.parallel_map pool task xs |}

(* A mutable that no task ever reaches is domain-confined: no finding. *)
let ana001_unreached =
  pool_shim
  ^ {| let stats : (string, int) Hashtbl.t = Hashtbl.create 8
       let bump k =
         Hashtbl.replace stats k
           (1 + Option.value ~default:0 (Hashtbl.find_opt stats k))
       let run pool xs = Pool.parallel_map pool (fun x -> x + 1) xs
       let _ = bump |}

(* The audited escape hatch silences the reachable-mutable report. *)
let ana001_suppressed =
  pool_shim
  ^ {| let cache : (int, int) Hashtbl.t = Hashtbl.create 8
       [@@indq.domain_safe
           "fixture: single-writer protocol documented elsewhere"]
       let task x = Hashtbl.replace cache x x; x
       let run pool xs = Pool.parallel_map pool task xs |}

(* Scoping: a justification on one mutable must not leak to its racy
   neighbor — the unannotated table is still reported. *)
let ana001_scoped =
  pool_shim
  ^ {| let safe : (int, int) Hashtbl.t = Hashtbl.create 8
       [@@indq.domain_safe "fixture: read-only after init"]
       let racy : (int, int) Hashtbl.t = Hashtbl.create 8
       let task x =
         Hashtbl.replace safe x x;
         Hashtbl.replace racy x x;
         x
       let run pool xs = Pool.parallel_map pool task xs |}

(* --- ANA002: allocation inside an [@indq.alloc_free] function ------------ *)

let ana002_tuple =
  {| let pair x = (x, x) [@@indq.alloc_free "fixture: claims wrongly"] |}

let ana002_boxed_float =
  {| let half x = Some (x /. 2.)
       [@@indq.alloc_free "fixture: boxes the float and the option"] |}

let ana002_escaping_call =
  {| let helper x = string_of_int x
     let hot x = helper x [@@indq.alloc_free "fixture: calls out"] |}

let ana002_clean_loop =
  {| let sum (a : float array) =
       let acc = ref 0. in
       for i = 0 to Array.length a - 1 do
         acc := !acc +. a.(i)
       done;
       !acc
     [@@indq.alloc_free "fixture: local accumulator, unboxed by the backend"] |}

(* Annotated callee: calls between [@indq.alloc_free] functions are fine. *)
let ana002_annotated_call =
  {| let double x = x * 2 [@@indq.alloc_free "fixture: int arithmetic"]
     let quad x = double (double x)
       [@@indq.alloc_free "fixture: composes annotated kernels"] |}

(* [@indq.alloc_ok] accepts exactly its subtree; allocation outside the
   audited expression is still reported. *)
(* A Bigarray kernel whose array kind and layout stay polymorphic reads
   through the generic C accessor, which boxes every float; pinning the
   type makes the same loop a plain unboxed load. *)
let ana002_polymorphic_dot =
  {| let dot a b =
       let acc = ref 0. in
       for i = 0 to Bigarray.Array1.dim a - 1 do
         acc := !acc +. (Bigarray.Array1.unsafe_get a i
                         *. Bigarray.Array1.unsafe_get b i)
       done;
       !acc
     [@@indq.alloc_free "fixture: the kind is a type variable"] |}

let ana002_annotated_dot =
  {| type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
     let dot (a : t) (b : t) =
       let acc = ref 0. in
       for i = 0 to Bigarray.Array1.dim a - 1 do
         acc := !acc +. (Bigarray.Array1.unsafe_get a i
                         *. Bigarray.Array1.unsafe_get b i)
       done;
       !acc
     [@@indq.alloc_free "fixture: Float64 kind, C layout"] |}

let ana002_alloc_ok_scoped =
  {| let cold_path x =
       if x < 0 then
         (failwith (string_of_int x)
          [@indq.alloc_ok "fixture: cold failure path"]);
       (x, x)
     [@@indq.alloc_free "fixture: tuple outside the audited subtree"] |}

let ana002_alloc_ok_clean =
  {| let guarded x =
       if x < 0 then
         (failwith (string_of_int x)
          [@indq.alloc_ok "fixture: cold failure path"]);
       x + 1
     [@@indq.alloc_free "fixture: hot path is pure int arithmetic"] |}

(* --- ANA003: attribute payload hygiene ----------------------------------- *)

let ana003_empty =
  {| let f x = x + 1 [@@indq.alloc_free ""] |}

let ana003_missing =
  {| let tbl : (int, int) Hashtbl.t = Hashtbl.create 8
       [@@indq.domain_safe] |}

(* --- Stats --------------------------------------------------------------- *)

let stats_counted () =
  let structure =
    typecheck ~modname:"Stats" (pool_shim ^ {|
      let cache : (int, int) Hashtbl.t = Hashtbl.create 8
        [@@indq.domain_safe "fixture: counted, not reported"]
      let hot x = x + 1 [@@indq.alloc_free "fixture: int arithmetic"]
      let run pool xs = Pool.parallel_map pool hot xs
      let _ = cache |})
  in
  let findings, stats =
    Analyze.run
      [ { Analyze.in_modname = "Stats"; in_file = "Stats.ml";
          in_structure = structure } ]
  in
  Alcotest.(check (list string)) "clean" [] (List.map (fun (f : Analyze.finding) -> f.code) findings);
  Alcotest.(check int) "modules" 1 stats.Analyze.st_modules;
  Alcotest.(check int) "spawners" 1 stats.st_spawners;
  Alcotest.(check bool) "saw the mutable" true (stats.st_mutables >= 1);
  Alcotest.(check bool) "saw the annotation" true (stats.st_annotated >= 1)

let () =
  Alcotest.run "analyze"
    [ ( "ana001",
        [ Alcotest.test_case "racy hashtbl" `Quick
            (check_codes "toplevel mutable from task" ~expect:[ "ANA001" ]
               ana001_racy);
          Alcotest.test_case "mutex-guarded" `Quick
            (check_codes "guarded twin" ~expect:[] ana001_mutex_safe);
          Alcotest.test_case "dls-keyed" `Quick
            (check_codes "dls twin" ~expect:[] ana001_dls_safe);
          Alcotest.test_case "domain-confined" `Quick
            (check_codes "unreached mutable" ~expect:[] ana001_unreached);
          Alcotest.test_case "suppressed" `Quick
            (check_codes "domain_safe hatch" ~expect:[] ana001_suppressed);
          Alcotest.test_case "suppression scoping" `Quick
            (check_codes "neighbor still reported" ~expect:[ "ANA001" ]
               ana001_scoped)
        ] );
      ( "ana002",
        [ Alcotest.test_case "tuple" `Quick
            (check_codes "tuple allocates" ~expect:[ "ANA002" ] ana002_tuple);
          Alcotest.test_case "boxed float" `Quick
            (check_codes "option of float" ~expect:[ "ANA002" ]
               ana002_boxed_float);
          Alcotest.test_case "escaping call" `Quick
            (check_codes "non-annotated callee" ~expect:[ "ANA002" ]
               ana002_escaping_call);
          Alcotest.test_case "clean loop" `Quick
            (check_codes "local accumulator" ~expect:[] ana002_clean_loop);
          Alcotest.test_case "annotated callee" `Quick
            (check_codes "kernel composition" ~expect:[] ana002_annotated_call);
          Alcotest.test_case "polymorphic bigarray" `Quick
            (check_codes "generic accessor boxes"
               ~expect:[ "ANA002"; "ANA002"; "ANA002" ]
               ana002_polymorphic_dot);
          Alcotest.test_case "kind-annotated bigarray" `Quick
            (check_codes "unboxed loads" ~expect:[] ana002_annotated_dot);
          Alcotest.test_case "alloc_ok scoping" `Quick
            (check_codes "alloc outside audited subtree" ~expect:[ "ANA002" ]
               ana002_alloc_ok_scoped);
          Alcotest.test_case "alloc_ok clean" `Quick
            (check_codes "audited cold path" ~expect:[] ana002_alloc_ok_clean)
        ] );
      ( "ana003",
        [ Alcotest.test_case "empty justification" `Quick
            (check_codes "empty payload" ~expect:[ "ANA003" ] ana003_empty);
          Alcotest.test_case "missing payload" `Quick
            (check_codes "bare marker" ~expect:[ "ANA003" ] ana003_missing)
        ] );
      ( "stats", [ Alcotest.test_case "counters" `Quick stats_counted ] )
    ]
