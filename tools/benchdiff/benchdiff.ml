(* benchdiff: compare two `bench -json` reports (see Report.sweep_to_json
   and bench/main.ml for the shape).  Deterministic quantities — counter
   means, count-unit histogram statistics — are compared exactly: any
   increase is a perf regression, any decrease an improvement worth a
   baseline refresh.  Result-shaped quantities (alpha, output sizes,
   false-negative counts, sweep geometry) must be identical, full stop: a
   difference there is not a perf change but a semantic one.  Wall-clock
   quantities (time_mean/time_total, seconds-unit histograms) are noisy
   and compared within a relative tolerance — and only when both reports
   carry them, so a times-less baseline gates counters alone.

   Self-contained: includes a minimal JSON reader (objects, arrays,
   strings, numbers, true/false/null) so the tool builds with no
   dependencies, like the rest of the repo. *)

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' when !pos + 1 < n ->
          advance ();
          (match s.[!pos] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' when !pos + 4 < n ->
            (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code -> Buffer.add_char buf (Char.chr (code land 0xff))
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | c -> Buffer.add_char buf c);
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numeric c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numeric s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          fields := (key, value) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let value = parse_value () in
          items := value :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_arr = function Arr xs -> Some xs | _ -> None

let obj_keys = function Obj fields -> List.map fst fields | _ -> []

(* --- Findings ------------------------------------------------------------ *)

type severity =
  | Regression  (** a deterministic perf quantity increased: gate fails *)
  | Mismatch  (** shapes or semantic results differ: gate fails *)
  | Improvement  (** a deterministic perf quantity decreased *)
  | Note  (** informational (new sweeps, counters on one side only) *)

type finding = { severity : severity; path : string; detail : string }

let severity_label = function
  | Regression -> "REGRESSION"
  | Mismatch -> "MISMATCH"
  | Improvement -> "improvement"
  | Note -> "note"

let pp_finding f =
  Printf.sprintf "%-11s %s: %s" (severity_label f.severity) f.path f.detail

let fails = function Regression | Mismatch -> true | Improvement | Note -> false

let exit_code ~strict findings =
  if List.exists (fun f -> fails f.severity) findings then 1
  else if strict && findings <> [] then 1
  else 0

(* --- Comparison ---------------------------------------------------------- *)

let fnum v = match to_num v with Some f -> f | None -> Float.nan

(* Deterministic perf quantity: larger is worse. *)
let compare_perf ~path ~what base cur acc =
  if Float.equal base cur then acc
  else
    let detail = Printf.sprintf "%s %.17g -> %.17g" what base cur in
    if cur > base then { severity = Regression; path; detail } :: acc
    else { severity = Improvement; path; detail } :: acc

(* Deterministic result quantity: any difference is a mismatch. *)
let compare_exact ~path ~what base cur acc =
  if Float.equal base cur then acc
  else
    {
      severity = Mismatch;
      path;
      detail = Printf.sprintf "%s %.17g <> %.17g" what base cur;
    }
    :: acc

(* Wall-clock quantity: only an increase beyond the relative tolerance is
   reported, and only as a Note-severity observation unless [gate_times]
   (times are noisy; the CI gate runs on times-less reports). *)
let compare_time ~tol ~gate_times ~path ~what base cur acc =
  if base > 0. && cur > base *. (1. +. tol) then
    {
      severity = (if gate_times then Regression else Note);
      path;
      detail =
        Printf.sprintf "%s %.6fs -> %.6fs (+%.0f%%, tolerance %.0f%%)" what
          base cur
          (100. *. ((cur /. base) -. 1.))
          (100. *. tol);
    }
    :: acc
  else acc

let union_keys a b =
  List.sort_uniq String.compare (obj_keys a @ obj_keys b)

(* [critical] counters (e.g. lp.dual_pivots, rtree.nodes_visited) are the
   quantities the perf-gate exists to protect: a critical counter present
   on only one side is a Mismatch, not a Note — otherwise a baseline that
   predates the counter (or a current run that silently dropped it) would
   let any regression through the gate vacuously. *)
let compare_metrics ~critical ~path base cur acc =
  List.fold_left
    (fun acc key ->
      let p = path ^ ".metrics_mean." ^ key in
      let one_sided where =
        if List.mem key critical then
          {
            severity = Mismatch;
            path = p;
            detail =
              Printf.sprintf "critical counter only in %s (refresh the baseline)"
                where;
          }
        else
          { severity = Note; path = p; detail = "counter only in " ^ where }
      in
      match (member key base, member key cur) with
      | Some b, Some c -> compare_perf ~path:p ~what:"counter mean" (fnum b) (fnum c) acc
      | Some _, None -> one_sided "baseline" :: acc
      | None, Some _ -> one_sided "current" :: acc
      | None, None -> acc)
    acc
    (union_keys base cur)

let hist_unit h = match member "unit" h with Some (Str u) -> u | _ -> "count"

let compare_hist ~tol ~gate_times ~path base cur acc =
  let deterministic = hist_unit base = "count" && hist_unit cur = "count" in
  if hist_unit base <> hist_unit cur then
    {
      severity = Mismatch;
      path;
      detail =
        Printf.sprintf "histogram unit %s <> %s" (hist_unit base)
          (hist_unit cur);
    }
    :: acc
  else
    let cmp what acc =
      let b = Option.bind (member what base) to_num in
      let c = Option.bind (member what cur) to_num in
      match (b, c) with
      | Some b, Some c ->
        let p = path ^ "." ^ what in
        if deterministic then compare_perf ~path:p ~what b c acc
        else compare_time ~tol ~gate_times ~path:p ~what b c acc
      | _ -> acc
    in
    acc |> cmp "count" |> cmp "sum" |> cmp "p50" |> cmp "p90" |> cmp "p99"

let compare_hists ~tol ~gate_times ~path base cur acc =
  List.fold_left
    (fun acc key ->
      let p = path ^ ".hists." ^ key in
      match (member key base, member key cur) with
      | Some b, Some c -> compare_hist ~tol ~gate_times ~path:p b c acc
      | Some b, None ->
        if hist_unit b = "count" then
          { severity = Mismatch; path = p; detail = "histogram only in baseline" }
          :: acc
        else acc
      | None, Some c ->
        if hist_unit c = "count" then
          { severity = Note; path = p; detail = "histogram only in current" }
          :: acc
        else acc
      | None, None -> acc)
    acc
    (union_keys base cur)

let compare_cell ~tol ~gate_times ~critical ~path base cur acc =
  let num what v = match Option.bind (member what v) to_num with
    | Some f -> Some f
    | None -> None
  in
  let both what = (num what base, num what cur) in
  let acc =
    List.fold_left
      (fun acc what ->
        match both what with
        | Some b, Some c -> compare_exact ~path:(path ^ "." ^ what) ~what b c acc
        | None, None -> acc
        (* A mandatory result field present on only one side means a
           truncated or malformed report; skipping it silently would let
           anything through the gate. *)
        | _ ->
          {
            severity = Mismatch;
            path = path ^ "." ^ what;
            detail = "field missing on one side";
          }
          :: acc)
      acc
      [ "alpha_mean"; "alpha_sd"; "output_size_mean"; "false_negative_runs" ]
  in
  let acc =
    List.fold_left
      (fun acc what ->
        match both what with
        | Some b, Some c ->
          compare_time ~tol ~gate_times ~path:(path ^ "." ^ what) ~what b c acc
        | _ -> acc)
      acc [ "time_mean"; "time_total" ]
  in
  let missing what =
    { severity = Mismatch; path = path ^ "." ^ what;
      detail = "field missing on one side" }
  in
  let acc =
    match (member "metrics_mean" base, member "metrics_mean" cur) with
    | Some b, Some c -> compare_metrics ~critical ~path b c acc
    | None, None -> acc
    | _ -> missing "metrics_mean" :: acc
  in
  match (member "hists" base, member "hists" cur) with
  | Some b, Some c -> compare_hists ~tol ~gate_times ~path b c acc
  | None, None -> acc
  | _ -> missing "hists" :: acc

let compare_sweep ~tol ~gate_times ~critical ~path base cur acc =
  let shape what acc =
    let b = member what base and c = member what cur in
    if b = c then acc
    else
      {
        severity = Mismatch;
        path = path ^ "." ^ what;
        detail = "sweep geometry differs (x values / algorithms / labels)";
      }
      :: acc
  in
  let acc = acc |> shape "x_values" |> shape "algorithms" in
  let rows v = match member "cells" v with Some (Arr rows) -> rows | _ -> [] in
  let brows = rows base and crows = rows cur in
  if List.length brows <> List.length crows then
    { severity = Mismatch; path = path ^ ".cells"; detail = "row count differs" }
    :: acc
  else
    List.fold_left2
      (fun (xi, acc) brow crow ->
        match (to_arr brow, to_arr crow) with
        | None, _ | _, None ->
          (* Anything but an array of cells is a malformed report;
             comparing it as zero cells would pass the gate vacuously. *)
          ( xi + 1,
            {
              severity = Mismatch;
              path = Printf.sprintf "%s.cells[%d]" path xi;
              detail = "malformed row (expected an array of cells)";
            }
            :: acc )
        | Some bcells, Some ccells ->
        if List.length bcells <> List.length ccells then
          ( xi + 1,
            {
              severity = Mismatch;
              path = Printf.sprintf "%s.cells[%d]" path xi;
              detail = "cell count differs";
            }
            :: acc )
        else
          ( xi + 1,
            snd
              (List.fold_left2
                 (fun (ai, acc) b c ->
                   ( ai + 1,
                     compare_cell ~tol ~gate_times ~critical
                       ~path:(Printf.sprintf "%s.cells[%d][%d]" path xi ai)
                       b c acc ))
                 (0, acc) bcells ccells) ))
      (0, acc) brows crows
    |> snd

(* [compare_reports baseline current] — the full BENCH-JSON comparison.
   [tol] is the relative wall-clock tolerance; [gate_times] promotes
   tolerance-exceeding time growth from Note to Regression; [critical]
   names counters whose one-sided absence is a Mismatch rather than a
   Note (see [compare_metrics]). *)
let compare_reports ?(tol = 0.5) ?(gate_times = false) ?(critical = []) base cur
    =
  let acc =
    List.fold_left
      (fun acc what ->
        match (member what base, member what cur) with
        | Some b, Some c when b <> c ->
          {
            severity = Mismatch;
            path = what;
            detail = "run configuration differs; reports are not comparable";
          }
          :: acc
        | _ -> acc)
      []
      [ "seed"; "scale"; "utilities"; "max_n" ]
  in
  let sweeps v =
    match member "sweeps" v with
    | Some (Arr entries) ->
      List.filter_map
        (fun e ->
          match (Option.bind (member "experiment" e) to_str, member "sweep" e) with
          | Some name, Some sweep -> Some (name, sweep)
          | _ -> None)
        entries
    | _ -> []
  in
  let bsweeps = sweeps base and csweeps = sweeps cur in
  let acc =
    List.fold_left
      (fun acc (name, bsweep) ->
        match List.assoc_opt name csweeps with
        | Some csweep ->
          compare_sweep ~tol ~gate_times ~critical ~path:name bsweep csweep acc
        | None ->
          {
            severity = Mismatch;
            path = name;
            detail = "sweep present in baseline but missing from current";
          }
          :: acc)
      acc bsweeps
  in
  let acc =
    List.fold_left
      (fun acc (name, _) ->
        if List.mem_assoc name bsweeps then acc
        else
          {
            severity = Note;
            path = name;
            detail = "new sweep, not in baseline (refresh to gate it)";
          }
          :: acc)
      acc csweeps
  in
  List.rev acc
