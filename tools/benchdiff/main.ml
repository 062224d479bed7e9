(* benchdiff driver: compare a committed baseline BENCH JSON against a
   fresh one and exit nonzero on counter regressions or result mismatches.

     benchdiff [-time-tol R] [-gate-times] [-strict] [-critical NAME]
               [-no-critical] BASELINE.json CURRENT.json

   Critical counters (default: lp.dual_pivots — every simplex pivot, the
   LP work the dual-simplex engine exists to reduce — plus
   rtree.nodes_visited and the skyline.path_* dispatch counters from the
   columnar data tier) hard-fail when present on only one side, so a
   stale baseline cannot un-gate them.

   Exit codes: 0 clean (improvements and notes allowed), 1 regression or
   mismatch (or, under -strict, any finding at all), 2 usage/IO/parse
   error. *)

module B = Indq_benchdiff.Benchdiff

let usage =
  "benchdiff [-time-tol R] [-gate-times] [-strict] [-critical NAME] \
   [-no-critical] BASELINE CURRENT"

let default_critical =
  [
    "lp.dual_pivots";
    (* The columnar-tier wins: Strtree traversal volume and the skyline
       path dispatch (sweep / SFS / store).  Critical for the
       same reason as the LP pivots — losing one from a report means the
       optimization it measures silently stopped being exercised. *)
    "rtree.nodes_visited";
    "skyline.path_sweep";
    "skyline.path_sfs";
    "skyline.path_store";
    (* The dynamic half of the ANA002 allocation-freedom story: minor
       words allocated inside the [@indq.alloc_free] flat-sweep kernel.
       Must stay exactly 0; one-sided absence means the probe was
       dropped and the static claim is no longer cross-checked. *)
    "prune.sweep_minor_words";
    (* Torn-tail recoveries: the counter lives in the journal codec that
       every Session links, so a report that loses it has lost the
       recovery path, not a cleanup.  The server's own counters are not
       gated here: the bench sweeps never run the server (they would read
       0), so test_serve asserts them instead. *)
    "journal.torn_tail";
  ]

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let tol = ref 0.5 in
  let gate_times = ref false in
  let strict = ref false in
  let critical = ref default_critical in
  let files = ref [] in
  let spec =
    [
      ( "-time-tol",
        Arg.Set_float tol,
        "R relative wall-clock tolerance (default 0.5 = +50%)" );
      ( "-gate-times",
        Arg.Set gate_times,
        " fail (not just note) when times exceed the tolerance" );
      ("-strict", Arg.Set strict, " fail on any difference, even improvements");
      ( "-critical",
        Arg.String (fun name -> critical := name :: !critical),
        "NAME counter whose one-sided absence is a gate failure (repeatable; \
         default lp.dual_pivots and the columnar-tier counters)" );
      ( "-no-critical",
        Arg.Unit (fun () -> critical := []),
        " clear the critical-counter set (including the defaults)" );
    ]
  in
  Arg.parse spec (fun p -> files := p :: !files) usage;
  match List.rev !files with
  | [ baseline_path; current_path ] -> (
    let load path =
      match B.parse (read_file path) with
      | Ok v -> v
      | Error msg ->
        Printf.eprintf "benchdiff: %s: %s\n" path msg;
        exit 2
      | exception Sys_error msg ->
        Printf.eprintf "benchdiff: %s\n" msg;
        exit 2
    in
    let baseline = load baseline_path in
    let current = load current_path in
    let findings =
      B.compare_reports ~tol:!tol ~gate_times:!gate_times ~critical:!critical
        baseline current
    in
    List.iter (fun f -> print_endline (B.pp_finding f)) findings;
    let code = B.exit_code ~strict:!strict findings in
    (match (findings, code) with
    | [], _ -> Printf.printf "benchdiff: no differences\n"
    | fs, 0 ->
      Printf.printf "benchdiff: %d finding(s), none gating\n" (List.length fs)
    | fs, _ ->
      Printf.printf "benchdiff: %d finding(s), gate FAILED\n" (List.length fs));
    exit code)
  | _ ->
    prerr_endline usage;
    exit 2
