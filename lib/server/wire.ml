module Algo = Indq_core.Algo

(* --- JSON ------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* The parser must be total over attacker-controlled bytes: every failure
   is a message, never an exception escaping [parse_json], and nesting is
   capped so a line of ten thousand '[' cannot overflow the stack. *)
exception Parse_fail of string

let max_depth = 64

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail msg) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some k when k = c -> advance ()
    | Some k -> fail (Printf.sprintf "expected '%c', found '%c'" c k)
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub text !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail ("bad literal at byte " ^ string_of_int !pos)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = text.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub text !pos 4 in
          pos := !pos + 4;
          let cp =
            match int_of_string_opt ("0x" ^ hex) with
            | Some cp -> cp
            | None -> fail ("bad \\u escape: " ^ hex)
          in
          (* Encode the code point as UTF-8; surrogates are passed through
             as three-byte sequences, which is enough for a codec whose
             string fields are ids, op names and error messages. *)
          if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
          else if cp < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
          end
        | _ -> fail (Printf.sprintf "bad escape '\\%c'" e));
        go ()
      end
      else if Char.code c < 0x20 then fail "raw control byte in string"
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match text.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    let token = String.sub text start (!pos - start) in
    match float_of_string_opt token with
    | Some x when Float.is_finite x -> Num x
    | Some _ | None -> fail ("bad number: " ^ token)
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
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
          let v = parse_value (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}' in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']' in array"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Parse_fail msg -> Error msg

(* [%.17g] round-trips every finite float and renders integral values
   without a decimal point, so encoding is canonical: the same response
   value always produces the same bytes.  The runtime's formatter is
   called directly: [Printf.sprintf] renders the same bytes but
   interprets its format on every call, about 60 words of allocation per
   number against 6, and a [done] line carries thousands of numbers. *)
external format_float : string -> float -> string = "caml_format_float"

let float_token x = format_float "%.17g" x

let print_json v =
  let buf = Buffer.create 128 in
  let add_string s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> Buffer.add_string buf (float_token x)
    | Str s -> add_string s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- Error codes ------------------------------------------------------- *)

type error_code =
  | Bad_json
  | Unknown_op
  | Bad_field
  | Session_exists
  | Unknown_session
  | Already_finished
  | Choice_out_of_range
  | Round_mismatch
  | Journal_corrupt
  | Journal_mismatch
  | Torn_write
  | Deadline_exceeded
  | Line_too_long
  | Forbidden
  | Internal

let code_table =
  [
    (Bad_json, "bad_json");
    (Unknown_op, "unknown_op");
    (Bad_field, "bad_field");
    (Session_exists, "session_exists");
    (Unknown_session, "unknown_session");
    (Already_finished, "already_finished");
    (Choice_out_of_range, "choice_out_of_range");
    (Round_mismatch, "round_mismatch");
    (Journal_corrupt, "journal_corrupt");
    (Journal_mismatch, "journal_mismatch");
    (Torn_write, "journal_torn_write");
    (Deadline_exceeded, "deadline_exceeded");
    (Line_too_long, "line_too_long");
    (Forbidden, "forbidden");
    (Internal, "internal");
  ]

let code_string c = List.assoc c code_table

let code_of_string s =
  List.find_map (fun (c, str) -> if str = s then Some c else None) code_table

(* --- Requests ---------------------------------------------------------- *)

type hello = {
  id : string;
  algo : Algo.name;
  data : string;
  n : int;
  d : int;
  seed : int;
  s : int;
  q : int;
  eps : float;
  delta : float;
}

type request =
  | Hello of hello
  | Resume of { id : string }
  | Ask of { id : string }
  | Answer of { id : string; round : int; choice : int }
  | Bye of { id : string }
  | Stats
  | Shutdown

type percentiles = { p_count : int; p50 : float; p90 : float; p99 : float }

type response =
  | R_ask of { id : string; round : int; options : float array array }
  | R_done of { id : string; questions : int; output : (int * float array) list }
  | R_ok of { id : string option }
  | R_stats of {
      counters : (string * float) list;
      round_latency : percentiles;
    }
  | R_error of { id : string option; code : error_code; message : string }

let valid_id id =
  let len = String.length id in
  len >= 1 && len <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       id

let num x = Num x

let int_ i = Num (float_of_int i)

let vec_json values = List (Array.to_list (Array.map num values))

let request_to_line req =
  print_json
    (match req with
    | Hello { id; algo; data; n; d; seed; s; q; eps; delta } ->
      Obj
        [
          ("op", Str "hello");
          ("id", Str id);
          ("algo", Str (Algo.to_string algo));
          ("data", Str data);
          ("n", int_ n);
          ("d", int_ d);
          ("seed", int_ seed);
          ("s", int_ s);
          ("q", int_ q);
          ("eps", num eps);
          ("delta", num delta);
        ]
    | Resume { id } -> Obj [ ("op", Str "resume"); ("id", Str id) ]
    | Ask { id } -> Obj [ ("op", Str "ask"); ("id", Str id) ]
    | Answer { id; round; choice } ->
      Obj
        [
          ("op", Str "answer");
          ("id", Str id);
          ("round", int_ round);
          ("choice", int_ choice);
        ]
    | Bye { id } -> Obj [ ("op", Str "bye"); ("id", Str id) ]
    | Stats -> Obj [ ("op", Str "stats") ]
    | Shutdown -> Obj [ ("op", Str "shutdown") ])

(* Decoding: one local exception turns every shape problem into a typed
   (code, message) pair at the [parse_request] boundary. *)
exception Reject of error_code * string

let reject code msg = raise (Reject (code, msg))

let obj_fields = function
  | Obj fields -> fields
  | _ -> reject Bad_json "request is not a JSON object"

let field fields key = List.assoc_opt key fields

let get_string fields key =
  match field fields key with
  | Some (Str s) -> s
  | Some _ -> reject Bad_field (Printf.sprintf "field %S must be a string" key)
  | None -> reject Bad_field (Printf.sprintf "missing field %S" key)

let get_int_opt fields key ~default =
  match field fields key with
  | None -> default
  | Some (Num x) when Float.is_integer x && Float.abs x <= 1e15 ->
    int_of_float x
  | Some _ ->
    reject Bad_field (Printf.sprintf "field %S must be an integer" key)

let get_int fields key =
  match field fields key with
  | None -> reject Bad_field (Printf.sprintf "missing field %S" key)
  | Some _ -> get_int_opt fields key ~default:0

let get_float_opt fields key ~default =
  match field fields key with
  | None -> default
  | Some (Num x) -> x
  | Some _ -> reject Bad_field (Printf.sprintf "field %S must be a number" key)

let get_id fields =
  let id = get_string fields "id" in
  if valid_id id then id
  else
    reject Bad_field
      "field \"id\" must be 1-64 characters of [A-Za-z0-9_.-]"

let parse_request text =
  match
    let fields = obj_fields (match parse_json text with
      | Ok v -> v
      | Error msg -> reject Bad_json msg)
    in
    match get_string fields "op" with
    | "hello" ->
      let id = get_id fields in
      let algo_name = get_string fields "algo" in
      let algo =
        try Algo.of_string algo_name
        with Invalid_argument _ ->
          reject Bad_field ("unknown algorithm: " ^ algo_name)
      in
      let data =
        match field fields "data" with
        | None -> "independent"
        | Some _ -> get_string fields "data"
      in
      Hello
        {
          id;
          algo;
          data;
          n = get_int_opt fields "n" ~default:0;
          d = get_int_opt fields "d" ~default:3;
          seed = get_int fields "seed";
          s = get_int_opt fields "s" ~default:0;
          q = get_int_opt fields "q" ~default:0;
          eps = get_float_opt fields "eps" ~default:0.;
          delta = get_float_opt fields "delta" ~default:0.;
        }
    | "resume" -> Resume { id = get_id fields }
    | "ask" -> Ask { id = get_id fields }
    | "answer" ->
      Answer
        {
          id = get_id fields;
          round = get_int fields "round";
          choice = get_int fields "choice";
        }
    | "bye" -> Bye { id = get_id fields }
    | "stats" -> Stats
    | "shutdown" -> Shutdown
    | op -> reject Unknown_op ("unknown op: " ^ op)
  with
  | req -> Ok req
  | exception Reject (code, msg) -> Error (code, msg)

(* --- Responses --------------------------------------------------------- *)

let response_to_line resp =
  print_json
    (match resp with
    | R_ask { id; round; options } ->
      Obj
        [
          ("op", Str "ask");
          ("id", Str id);
          ("round", int_ round);
          ("options", List (Array.to_list (Array.map vec_json options)));
        ]
    | R_done { id; questions; output } ->
      (* Each output row is [tuple id, v1, ..., vd] — compact, and the id
         keeps the result traceable to the original dataset row. *)
      let row (tid, values) =
        List (int_ tid :: Array.to_list (Array.map num values))
      in
      Obj
        [
          ("op", Str "done");
          ("id", Str id);
          ("questions", int_ questions);
          ("output", List (List.map row output));
        ]
    | R_ok { id } ->
      Obj
        (("op", Str "ok")
        :: (match id with Some id -> [ ("id", Str id) ] | None -> []))
    | R_stats { counters; round_latency = { p_count; p50; p90; p99 } } ->
      Obj
        [
          ("op", Str "stats");
          ("counters", Obj (List.map (fun (k, v) -> (k, num v)) counters));
          ( "round_latency",
            Obj
              [
                ("count", int_ p_count);
                ("p50", num p50);
                ("p90", num p90);
                ("p99", num p99);
              ] );
        ]
    | R_error { id; code; message } ->
      Obj
        (("op", Str "error")
        :: ((match id with Some id -> [ ("id", Str id) ] | None -> [])
           @ [ ("code", Str (code_string code)); ("message", Str message) ])))

let get_float fields key =
  match field fields key with
  | Some (Num x) -> x
  | Some _ | None ->
    reject Bad_field (Printf.sprintf "missing number field %S" key)

let get_values = function
  | Num x -> x
  | _ -> reject Bad_field "option values must be numbers"

let parse_response text =
  match
    let fields = obj_fields (match parse_json text with
      | Ok v -> v
      | Error msg -> reject Bad_json msg)
    in
    match get_string fields "op" with
    | "ask" ->
      let options =
        match field fields "options" with
        | Some (List rows) ->
          List.map
            (function
              | List vs -> Array.of_list (List.map get_values vs)
              | _ -> reject Bad_field "each option must be an array")
            rows
          |> Array.of_list
        | Some _ | None -> reject Bad_field "missing field \"options\""
      in
      R_ask { id = get_string fields "id"; round = get_int fields "round"; options }
    | "done" ->
      let output =
        match field fields "output" with
        | Some (List rows) ->
          List.map
            (function
              | List (Num tid :: vs)
                when Float.is_integer tid && Float.abs tid <= 1e15 ->
                (int_of_float tid, Array.of_list (List.map get_values vs))
              | _ -> reject Bad_field "each output row must be [id, v...]")
            rows
        | Some _ | None -> reject Bad_field "missing field \"output\""
      in
      R_done
        {
          id = get_string fields "id";
          questions = get_int fields "questions";
          output;
        }
    | "ok" ->
      R_ok
        {
          id =
            (match field fields "id" with Some (Str s) -> Some s | _ -> None);
        }
    | "stats" ->
      let counters =
        match field fields "counters" with
        | Some (Obj kvs) -> List.map (fun (k, v) -> (k, get_values v)) kvs
        | Some _ | None -> reject Bad_field "missing field \"counters\""
      in
      let round_latency =
        match field fields "round_latency" with
        | Some (Obj kvs) ->
          {
            p_count = get_int kvs "count";
            p50 = get_float kvs "p50";
            p90 = get_float kvs "p90";
            p99 = get_float kvs "p99";
          }
        | Some _ | None -> reject Bad_field "missing field \"round_latency\""
      in
      R_stats { counters; round_latency }
    | "error" ->
      let code_text = get_string fields "code" in
      let code =
        match code_of_string code_text with
        | Some c -> c
        | None -> reject Bad_field ("unknown error code: " ^ code_text)
      in
      R_error
        {
          id =
            (match field fields "id" with Some (Str s) -> Some s | _ -> None);
          code;
          message = get_string fields "message";
        }
    | op -> reject Unknown_op ("unknown response op: " ^ op)
  with
  | resp -> Ok resp
  | exception Reject (_, msg) -> Error msg
