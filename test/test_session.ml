(* Session journal, recovery, and kill-and-resume byte-identity.

   The crash-recovery contract under test: a session is a deterministic
   function of (algorithm, config, data, rng, answers), so replaying a
   write-ahead journal through [Session.resume] must reconstruct the
   interrupted run byte-identically — same output tuples, same question
   count, and a journal continuation that equals the uninterrupted one. *)

module Algo = Indq_core.Algo
module Session = Indq_core.Session
module Counter = Indq_obs.Counter
module Dataset = Indq_dataset.Dataset
module Generator = Indq_dataset.Generator
module Rng = Indq_util.Rng
module Skyline = Indq_dominance.Skyline
module Trace = Indq_obs.Trace

let vec = Indq_linalg.Vec.of_array
module Utility = Indq_user.Utility

let entry =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Session.journal_entry_to_json e))
    ( = )

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let expect_mismatch ?reason_part ~round f =
  match f () with
  | _ -> Alcotest.fail "expected Session.Error (Journal_mismatch _)"
  | exception Session.Error (Session.Journal_mismatch { round = r; reason }) ->
    Alcotest.(check int) "mismatch round" round r;
    (match reason_part with
    | None -> ()
    | Some part ->
      if not (contains reason part) then
        Alcotest.failf "mismatch reason %S does not mention %S" reason part)

(* --- Journal encoding -------------------------------------------------- *)

let sample_header =
  Session.Started
    {
      algo = "Squeeze-u";
      s = 2;
      q = 6;
      eps = 0.05;
      delta = 0.;
      trials = 10;
      exact_prune = false;
      n = 40;
      d = 2;
    }

let test_journal_round_trip () =
  let entries =
    [
      sample_header;
      Session.Answered { round = 1; options = 2; choice = 1 };
      Session.Answered { round = 2; options = 3; choice = 0 };
    ]
  in
  let text =
    String.concat "\n" (List.map Session.journal_entry_to_json entries)
  in
  Alcotest.(check (list entry))
    "parse inverts print" entries
    (Session.journal_of_string text);
  (* Blank lines (including a trailing newline) are ignored. *)
  Alcotest.(check (list entry))
    "blank lines skipped" entries
    (Session.journal_of_string ("\n" ^ text ^ "\n\n"))

let test_journal_corrupt () =
  let header_json = Session.journal_entry_to_json sample_header in
  (* Strict mode is the historical contract: the first unparseable line
     raises, even when it is the final one.  Line numbers are 1-based and
     count blank lines. *)
  Alcotest.check_raises "unparseable line"
    (Session.Error (Session.Journal_corrupt { line = 3; text = "not json" }))
    (fun () ->
      ignore
        (Session.journal_of_string ~strict:true
           ("\n" ^ header_json ^ "\nnot json")));
  let missing = {|{"type":"answered","round":1}|} in
  Alcotest.check_raises "missing required field"
    (Session.Error (Session.Journal_corrupt { line = 1; text = missing }))
    (fun () -> ignore (Session.journal_of_string ~strict:true missing));
  let unknown = {|{"type":"paused"}|} in
  Alcotest.check_raises "unknown record type"
    (Session.Error (Session.Journal_corrupt { line = 2; text = unknown }))
    (fun () ->
      ignore
        (Session.journal_of_string ~strict:true (header_json ^ "\n" ^ unknown)));
  (* Default mode drops only the final bad line; damage before the last
     record is real corruption either way, because sequential appends can
     only ever tear the tail. *)
  let answered =
    Session.journal_entry_to_json
      (Session.Answered { round = 1; options = 2; choice = 0 })
  in
  Alcotest.(check (list entry))
    "default drops a bad tail"
    [ sample_header ]
    (Session.journal_of_string (header_json ^ "\nnot json"));
  Alcotest.check_raises "default still raises mid-file"
    (Session.Error (Session.Journal_corrupt { line = 2; text = "not json" }))
    (fun () ->
      ignore
        (Session.journal_of_string (header_json ^ "\nnot json\n" ^ answered)))

(* A crash can truncate the final record at any byte boundary.  Chop the
   last line at every offset: the default parse must always recover to
   exactly the complete records (counting each drop in journal.torn_tail),
   and never misread a prefix as a record — the "choice":12 torn to
   "choice":1 trap.  Strict mode must raise for every chop. *)
let test_journal_torn_tail_chops () =
  let entries =
    [
      sample_header;
      Session.Answered { round = 1; options = 2; choice = 1 };
      Session.Answered { round = 2; options = 2; choice = 12 };
    ]
  in
  let lines = List.map Session.journal_entry_to_json entries in
  let intact = String.concat "\n" lines ^ "\n" in
  let last = List.nth lines (List.length lines - 1) in
  let body = String.concat "\n" [ List.nth lines 0; List.nth lines 1 ] ^ "\n" in
  let kept = [ List.nth entries 0; List.nth entries 1 ] in
  Alcotest.(check (list entry))
    "intact journal parses fully" entries
    (Session.journal_of_string intact);
  for cut = 1 to String.length last - 1 do
    let torn = body ^ String.sub last 0 cut in
    let before = Counter.get "journal.torn_tail" in
    Alcotest.(check (list entry))
      (Printf.sprintf "chop at %d recovers to last complete record" cut)
      kept
      (Session.journal_of_string torn);
    Alcotest.(check (float 0.))
      (Printf.sprintf "chop at %d counted" cut)
      (before +. 1.)
      (Counter.get "journal.torn_tail");
    match Session.journal_of_string ~strict:true torn with
    | _ -> Alcotest.failf "strict parse accepted a chop at byte %d" cut
    | exception Session.Error (Session.Journal_corrupt _) -> ()
  done

(* --- Driving sessions -------------------------------------------------- *)

let u = vec [| 0.7; 0.3 |]

let drive session =
  let rec loop () =
    match Session.current session with
    | Session.Asking options ->
      Session.answer session (Utility.best_index u options);
      loop ()
    | Session.Finished result -> result
  in
  loop ()

let make_data seed = Generator.anti_correlated (Rng.create seed) ~n:40 ~d:2

(* Run a journaled session to completion; the caller reconstructs crashes
   from the captured entries plus identically rebuilt data and rng. *)
let run_reference ~seed algo config =
  let entries = ref [] in
  let session =
    Session.start
      ~journal:(fun e -> entries := e :: !entries)
      algo config ~data:(make_data seed)
      ~rng:(Rng.create (seed + 1))
  in
  let result = drive session in
  (result, List.rev !entries)

let split_journal = function
  | h :: answers -> (h, answers)
  | [] -> Alcotest.fail "reference journal is empty"

let test_journal_write_ahead () =
  let config = { (Algo.default_config ~d:2) with Algo.trials = 2 } in
  let before = Counter.get "journal.records" in
  let result, journal = run_reference ~seed:7 Algo.Squeeze_u config in
  let header, answers = split_journal journal in
  Alcotest.(check entry) "header fingerprints the run"
    (Session.Started
       {
         algo = "Squeeze-u";
         s = config.Algo.s;
         q = config.Algo.q;
         eps = config.Algo.eps;
         delta = config.Algo.delta;
         trials = config.Algo.trials;
         exact_prune = config.Algo.exact_prune;
         n = 40;
         d = 2;
       })
    header;
  Alcotest.(check int)
    "one answer record per question" result.Algo.questions_used
    (List.length answers);
  List.iteri
    (fun i e ->
      match e with
      | Session.Answered { round; _ } ->
        Alcotest.(check int) "rounds are sequential" (i + 1) round
      | Session.Started _ -> Alcotest.fail "second header in journal")
    answers;
  Alcotest.(check (float 0.))
    "journal.records counts every record"
    (float_of_int (List.length journal))
    (Counter.get "journal.records" -. before)

(* --- Mismatch detection ------------------------------------------------ *)

let test_resume_mismatches () =
  let config = { (Algo.default_config ~d:2) with Algo.trials = 2 } in
  let seed = 7 in
  let _, journal = run_reference ~seed Algo.Squeeze_u config in
  let header, answers = split_journal journal in
  let resume ?(algo = Algo.Squeeze_u) ?(config = config) entries () =
    ignore
      (Session.resume entries algo config ~data:(make_data seed)
         ~rng:(Rng.create (seed + 1)))
  in
  expect_mismatch ~round:0 ~reason_part:"empty journal" (resume []);
  expect_mismatch ~round:0 ~reason_part:"does not begin with a session_started"
    (resume answers);
  expect_mismatch ~round:0 ~reason_part:"journal is for algorithm Squeeze-u"
    (resume ~algo:Algo.MinD journal);
  expect_mismatch ~round:0 ~reason_part:"trials"
    (resume ~config:{ config with Algo.trials = 9 } journal);
  expect_mismatch ~round:0 ~reason_part:"eps"
    (resume ~config:{ config with Algo.eps = 0.1 } journal);
  (match answers with
  | first :: second :: rest ->
    expect_mismatch ~round:2 ~reason_part:"expected round 1 next"
      (resume (header :: second :: first :: rest))
  | _ -> Alcotest.fail "expected at least two answers");
  let tampered =
    List.map
      (function
        | Session.Answered { round = 1; options; choice } ->
          Session.Answered { round = 1; options = options + 1; choice }
        | e -> e)
      journal
  in
  expect_mismatch ~round:1 ~reason_part:"options" (resume tampered);
  let n = List.length answers in
  expect_mismatch ~round:(n + 1)
    ~reason_part:"continues after the run finished"
    (resume
       (journal
       @ [ Session.Answered { round = n + 1; options = 2; choice = 0 } ]));
  expect_mismatch ~round:1 ~reason_part:"second session_started"
    (resume (header :: header :: answers))

(* --- Kill-and-resume byte-identity ------------------------------------- *)

(* Kill the reference session after round [k] (keeping the header plus the
   first [k] journaled answers), resume from scratch with identically
   reconstructed data and rng, drive to completion, and demand the exact
   uninterrupted result and journal. *)
let check_kill_resume ~seed algo config =
  let reference, journal = run_reference ~seed algo config in
  let header, answers = split_journal journal in
  let ref_csv = Dataset.to_csv reference.Algo.output in
  let total = List.length answers in
  for k = 0 to total do
    let label s = Printf.sprintf "%s k=%d: %s" (Algo.to_string algo) k s in
    let prefix = header :: List.filteri (fun i _ -> i < k) answers in
    let post = ref [] in
    let replayed_before = Counter.get "journal.replayed" in
    let session =
      Session.resume
        ~journal:(fun e -> post := e :: !post)
        prefix algo config ~data:(make_data seed)
        ~rng:(Rng.create (seed + 1))
    in
    Alcotest.(check (float 0.))
      (label "journal.replayed delta")
      (float_of_int k)
      (Counter.get "journal.replayed" -. replayed_before);
    Alcotest.(check int)
      (label "questions replayed")
      k
      (Session.questions_asked session);
    let result = drive session in
    Alcotest.(check string)
      (label "byte-identical output")
      ref_csv
      (Dataset.to_csv result.Algo.output);
    Alcotest.(check int)
      (label "question count")
      reference.Algo.questions_used result.Algo.questions_used;
    (* Replayed answers are not re-emitted, later ones are: the kept prefix
       plus the post-resume records must reproduce the full journal. *)
    Alcotest.(check (list entry))
      (label "journal continuation")
      journal
      (prefix @ List.rev !post)
  done

let tab3_configs =
  let base = { (Algo.default_config ~d:2) with Algo.trials = 2 } in
  [
    (Algo.Squeeze_u, base);
    (* delta > 0 dispatches Squeeze-u to the robust Algorithm 3 path. *)
    (Algo.Squeeze_u, { base with Algo.delta = 0.05 });
    (Algo.Uh_random, base);
    (Algo.MinD, base);
    (Algo.MinR, base);
  ]

let test_kill_resume_every_round () =
  List.iter
    (fun (algo, config) -> check_kill_resume ~seed:7 algo config)
    tab3_configs

(* Property form: any seed, any algorithm, with and without user error —
   resuming after a random round is indistinguishable from never crashing. *)
let qcheck_kill_resume =
  QCheck2.Test.make ~count:8 ~name:"kill-and-resume at a random round"
    QCheck2.Gen.(triple (int_range 1 10_000) (int_range 0 3) (int_range 0 1))
    (fun (seed, algo_idx, with_delta) ->
      let algo = List.nth Algo.all algo_idx in
      let config =
        {
          (Algo.default_config ~d:2) with
          Algo.trials = 2;
          delta = (if with_delta = 1 then 0.05 else 0.);
        }
      in
      let reference, journal = run_reference ~seed algo config in
      let header, answers = split_journal journal in
      let k = seed mod (List.length answers + 1) in
      let prefix = header :: List.filteri (fun i _ -> i < k) answers in
      let post = ref [] in
      let session =
        Session.resume
          ~journal:(fun e -> post := e :: !post)
          prefix algo config ~data:(make_data seed)
          ~rng:(Rng.create (seed + 1))
      in
      let result = drive session in
      Dataset.to_csv result.Algo.output = Dataset.to_csv reference.Algo.output
      && result.Algo.questions_used = reference.Algo.questions_used
      && prefix @ List.rev !post = journal)

(* --- Pre-filtered candidates --------------------------------------------- *)

(* The events a pre-filtered run must reproduce exactly: the run header and
   the Line 1 stage (timings and spans aside). *)
let shape_events events =
  List.filter_map
    (function
      | Trace.Run_started _ as e -> Some (Trace.to_json e)
      | Trace.Prune_stage { stage = "skyline"; _ } as e -> Some (Trace.to_json e)
      | _ -> None)
    (List.rev events)

(* Handing a session the (1+eps)-skyline plus the source row count must be
   indistinguishable from handing it the whole catalogue: same journal
   (header included), same output, same Line 1 trace, and a journal written
   by either resumes on the other. *)
let test_prefiltered_candidates () =
  List.iter
    (fun (algo, (config : Algo.config)) ->
      let label s =
        Printf.sprintf "%s delta=%g: %s" (Algo.to_string algo)
          config.Algo.delta s
      in
      let seed = 7 in
      let data = make_data seed in
      let candidates = Skyline.prune_eps_dominated ~eps:config.Algo.eps data in
      let source_n = Dataset.size data in
      let run ?source_n data =
        let journal = ref [] and events = ref [] in
        let session =
          Session.start
            ~trace:(fun e -> events := e :: !events)
            ~journal:(fun e -> journal := e :: !journal)
            ?source_n algo config ~data ~rng:(Rng.create (seed + 1))
        in
        let result = drive session in
        (result, List.rev !journal, shape_events !events)
      in
      let whole, whole_journal, whole_events = run data in
      let pre, pre_journal, pre_events = run ~source_n candidates in
      Alcotest.(check (list entry)) (label "journal") whole_journal pre_journal;
      Alcotest.(check string) (label "output")
        (Dataset.to_csv whole.Algo.output) (Dataset.to_csv pre.Algo.output);
      Alcotest.(check (list string)) (label "trace") whole_events pre_events;
      (* A journal written from the whole catalogue resumes on the
         candidates, and vice versa. *)
      let header, answers = split_journal whole_journal in
      let prefix = header :: List.filteri (fun i _ -> i < 1) answers in
      let resumed =
        Session.resume ~source_n prefix algo config ~data:candidates
          ~rng:(Rng.create (seed + 1))
      in
      Alcotest.(check string) (label "resumed on candidates")
        (Dataset.to_csv whole.Algo.output)
        (Dataset.to_csv (drive resumed).Algo.output);
      let resumed =
        Session.resume prefix algo config ~data ~rng:(Rng.create (seed + 1))
      in
      Alcotest.(check string) (label "resumed on the catalogue")
        (Dataset.to_csv pre.Algo.output)
        (Dataset.to_csv (drive resumed).Algo.output))
    tab3_configs

(* --- Abandon ------------------------------------------------------------ *)

let test_abandon () =
  let config = { (Algo.default_config ~d:2) with Algo.trials = 2 } in
  let records = ref 0 in
  let session =
    Session.start
      ~journal:(fun _ -> incr records)
      Algo.Squeeze_u config ~data:(make_data 7) ~rng:(Rng.create 8)
  in
  (match Session.current session with
  | Session.Asking _ -> ()
  | Session.Finished _ -> Alcotest.fail "expected a pending question");
  let journaled = !records in
  Session.abandon session;
  Alcotest.(check int) "abandon journals nothing" journaled !records;
  Alcotest.check_raises "answer after abandon"
    (Session.Error Session.Already_finished) (fun () ->
      Session.answer session 0);
  Session.abandon session;
  (* On a finished session abandon changes nothing. *)
  let finished =
    Session.start Algo.Squeeze_u config ~data:(make_data 7) ~rng:(Rng.create 8)
  in
  let result = drive finished in
  Session.abandon finished;
  (match Session.result finished with
  | Some r ->
    Alcotest.(check string) "result kept"
      (Dataset.to_csv result.Algo.output) (Dataset.to_csv r.Algo.output)
  | None -> Alcotest.fail "finished session lost its result");
  Alcotest.(check int) "question count kept" result.Algo.questions_used
    (Session.questions_asked finished)

(* Resident set size in kB, from the Linux proc interface. *)
let vm_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* A suspended session holds an effect continuation whose fiber stack is
   only freed when the fiber finishes.  Abandoning must finish it: 20k
   abandoned sessions would otherwise leak about 28 MB of stacks. *)
let test_abandon_frees_fibers () =
  if Sys.file_exists "/proc/self/status" then begin
    let config = Algo.default_config ~d:4 in
    let data = Generator.anti_correlated (Rng.create 3) ~n:200 ~d:4 in
    let candidates = Skyline.prune_eps_dominated ~eps:config.Algo.eps data in
    let source_n = Dataset.size data in
    let start () =
      Session.start ~source_n Algo.Squeeze_u config ~data:candidates
        ~rng:(Rng.create 4)
    in
    (* Warm up the heap before taking the baseline. *)
    for _ = 1 to 1000 do
      Session.abandon (start ())
    done;
    Gc.compact ();
    let before = vm_rss_kb () in
    for _ = 1 to 20_000 do
      let session = start () in
      (match Session.current session with
      | Session.Asking _ -> ()
      | Session.Finished _ -> Alcotest.fail "expected a suspended session");
      Session.abandon session
    done;
    Gc.compact ();
    let grown = vm_rss_kb () - before in
    if grown >= 5 * 1024 then
      Alcotest.failf "VmRSS grew by %d kB over 20k abandoned sessions" grown
  end

let () =
  Alcotest.run "session"
    [
      ( "journal",
        [
          Alcotest.test_case "round trip" `Quick test_journal_round_trip;
          Alcotest.test_case "corrupt records" `Quick test_journal_corrupt;
          Alcotest.test_case "torn tail chops" `Quick
            test_journal_torn_tail_chops;
          Alcotest.test_case "write-ahead records" `Quick
            test_journal_write_ahead;
        ] );
      ( "resume",
        [
          Alcotest.test_case "mismatch detection" `Quick
            test_resume_mismatches;
          Alcotest.test_case "kill-and-resume after every round" `Quick
            test_kill_resume_every_round;
          QCheck_alcotest.to_alcotest qcheck_kill_resume;
          Alcotest.test_case "pre-filtered candidates reproduce the run" `Quick
            test_prefiltered_candidates;
        ] );
      ( "abandon",
        [
          Alcotest.test_case "abandon ends a pending session" `Quick
            test_abandon;
          Alcotest.test_case "abandoned fibers are freed" `Quick
            test_abandon_frees_fibers;
        ] );
    ]
