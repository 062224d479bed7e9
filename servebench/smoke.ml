(* The benchmark's own test: a seconds-scale run of every workload, with
   tracing off and on.  Each run must exit 0, report [correct], and emit
   exactly the metrics BENCHMARK.json declares for its mode, each with its
   declared unit.

     smoke.exe --bench servebench.exe --indq indq.exe --spec BENCHMARK.json *)

module Wire = Indq_server.Wire

let bench = ref ""
let indq = ref ""
let spec_file = ref ""

let read_file path = In_channel.with_open_bin path In_channel.input_all

let field name = function
  | Wire.Obj fields -> List.assoc_opt name fields
  | _ -> None

let declared spec key =
  match field key spec with
  | Some (Wire.List ms) ->
    List.map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | Some (Wire.Str n), Some (Wire.Str u) -> (n, u)
        | _ -> failwith ("malformed metric in " ^ key))
      ms
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

let workloads spec =
  match field "workloads" spec with
  | Some (Wire.List ws) ->
    List.map
      (fun w ->
        match field "name" w with
        | Some (Wire.Str n) -> n
        | _ -> failwith "malformed workload")
      ws
  | _ -> failwith "BENCHMARK.json has no workloads"

let last_line text =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)) with
  | l :: _ -> l
  | [] -> ""

(* Run one smoke benchmark; returns (exit code, stdout). *)
let run_bench args =
  let out = Filename.temp_file ~temp_dir:"." "servebench-smoke" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  (* A bare file name would be looked up on PATH. *)
  let bench =
    if Filename.is_implicit !bench then Filename.concat Filename.current_dir_name !bench
    else !bench
  in
  let pid =
    Unix.create_process bench (Array.of_list (bench :: args)) Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let text = read_file out in
  Sys.remove out;
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  (code, text)

let () =
  Arg.parse
    [
      ("--bench", Arg.Set_string bench, "PATH servebench.exe");
      ("--indq", Arg.Set_string indq, "PATH indq.exe");
      ("--spec", Arg.Set_string spec_file, "PATH BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad a))
    "smoke.exe --bench PATH --indq PATH --spec PATH";
  let spec =
    match Wire.parse_json (read_file !spec_file) with
    | Ok j -> j
    | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun name ->
      List.iter
        (fun (trace, key) ->
          let code, text =
            run_bench
              [
                "--indq"; !indq; "--workload"; name; "--seed"; "7"; "--seconds";
                "1"; "--trace"; string_of_int trace; "--smoke";
              ]
          in
          let tag = Printf.sprintf "%s --trace %d" name trace in
          if code <> 0 then problem "%s: exit code %d" tag code;
          match Wire.parse_json (last_line text) with
          | Error msg -> problem "%s: last line is not JSON (%s)" tag msg
          | Ok result ->
            (match field "correct" result with
            | Some (Wire.Bool true) -> ()
            | _ -> problem "%s: correct is not true" tag);
            (match (field "attempted" result, field "failed" result) with
            | Some (Wire.Num a), Some (Wire.Num f) when a >= 1. && f = 0. -> ()
            | _ -> problem "%s: attempted/failed out of shape" tag);
            let emitted =
              match field "metrics" result with
              | Some (Wire.Obj ms) ->
                List.map
                  (fun (n, m) ->
                    match (field "value" m, field "unit" m) with
                    | Some (Wire.Num _), Some (Wire.Str u) -> (n, u)
                    | _ -> (n, "<malformed>"))
                  ms
              | _ -> []
            in
            let want = declared spec key in
            List.iter
              (fun (n, u) ->
                match List.assoc_opt n emitted with
                | Some u' when u' = u -> ()
                | Some u' -> problem "%s: %s has unit %s, declared %s" tag n u' u
                | None -> problem "%s: %s not emitted" tag n)
              want;
            List.iter
              (fun (n, _) ->
                if not (List.mem_assoc n want) then problem "%s: %s is not declared" tag n)
              emitted)
        [ (0, "end_to_end"); (1, "per_layer") ])
    (workloads spec);
  match List.rev !problems with
  | [] -> print_endline "servebench smoke: every workload passed, traced and untraced"
  | ps ->
    List.iter prerr_endline ps;
    exit 1
