(* indq-analyze: typedtree-level domain-safety and allocation-freedom
   analysis over the project's .cmt files.

   Where indq-lint (tools/lint) is deliberately syntactic, this analyzer is
   semantic: it consumes the *typed* tree the compiler wrote next to each
   object file (Cmt_format), so it sees resolved paths (through module
   aliases and opens), value kinds (is this ident a %-primitive or a real
   call?), type heads (is this toplevel binding a Hashtbl.t?) and record
   representations (does this field store box floats?).  Two passes run
   over a per-module call graph:

   ANA001  domain-safety / race detection.  Every *toplevel* mutable value
           (ref, array, bytes, Hashtbl.t, Buffer.t, Queue.t, Stack.t, or a
           record literal with mutable fields) is classified as
             - DLS-keyed     (defined as [Domain.DLS.new_key …]),
             - atomic        (type head [Atomic.t]),
             - mutex-guarded (every reference anywhere in the scanned tree
                              sits inside a [Mutex.protect …] thunk),
             - audited       ([@@indq.domain_safe "why"]), or
             - domain-confined (not reachable from any parallel task).
           A mutable that is none of these *and* is reachable from a
           [Pool.parallel_map]/[parallel_map_seeded] task body is reported
           as a potential race.  Reachability: any toplevel function whose
           body spawns a parallel map is a task spawner; the closure it
           passes can capture anything the function references, so the
           spawner's reference set seeds a BFS over the global call graph
           (toplevel function -> referenced toplevel functions).  DLS-key
           init closures also run on worker domains, so a reachable key
           propagates into its initializer's references.

   ANA002  allocation-freedom.  A function annotated
           [@@indq.alloc_free "why"] promises its body performs no heap
           allocation in steady state.  The checker walks the body and
           reports: closure creation (fun/let rec/letop/lazy), tuple,
           record, non-empty array and argument-carrying constructor
           builds, partial applications (result type is an arrow), calls
           into functions that are neither [@indq.alloc_free]-annotated,
           %-primitives, [@@noalloc] externals nor whitelisted
           (Stdlib.invalid_arg — the audited caller-bug guard idiom,
           cold by construction), float returns across non-[@inline]
           annotated calls (the result is boxed), float stores into
           non-float-record mutable fields or captured refs, float
           reads out of float records, and [%caml_ba_*] Bigarray
           primitives applied to an array whose kind or layout is a type
           variable at the use site (the generic accessor boxes).  Local [let r = ref …] accumulators
           are allowed — the backend unboxes non-escaping refs — but an
           accumulator escaping as an argument to a non-primitive call is
           reported because that defeats the unboxing.

   ANA003  attribute grammar.  [@indq.alloc_free]/[@indq.domain_safe]/
           [@indq.alloc_ok] payloads must be a single non-empty string
           literal (the justification).  Malformed payloads are findings
           themselves, so escape hatches stay auditable.  (indq-lint rule
           IND010 enforces the same grammar syntactically at lint time.)

   Escape hatches: [@@indq.domain_safe "why"] on a toplevel mutable
   binding accepts the race risk after audit; [@indq.alloc_ok "why"] on an
   expression inside an annotated function accepts that one allocation
   site (cold failure paths, one-time growth, O(1) setup).

   Known approximations (documented, cross-checked dynamically by the
   `prune.sweep_minor_words` bench probe): boxed-integer intermediates
   (Int64 read out of a Bigarray then [Int64.to_int]) are treated as free
   because cmmgen fuses the box/unbox pair; [@inline] is trusted without
   proving the backend actually inlines; toplevel mutables built by
   function calls (not literal record/ref/creation syntax) whose type head
   is not one of the known mutable containers are not classified. *)

module SSet = Set.Make (String)

type finding = {
  file : string;
  line : int;
  col : int;
  code : string;
  message : string;
}

let finding_compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.code b.code

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.code f.message

type stats = {
  st_modules : int;
  st_annotated : int;  (* [@indq.alloc_free] functions checked *)
  st_mutables : int;   (* toplevel mutable values classified *)
  st_spawners : int;   (* toplevel functions spawning parallel tasks *)
}

(* One compilation unit to analyze: the module name as the compiler knows
   it ("Indq_core__Pruning"), the source path for diagnostics, and the
   implementation typedtree. *)
type input = {
  in_modname : string;
  in_file : string;
  in_structure : Typedtree.structure;
}

(* --- Attributes --------------------------------------------------------- *)

let attr_alloc_free = "indq.alloc_free"
let attr_domain_safe = "indq.domain_safe"
let attr_alloc_ok = "indq.alloc_ok"

let find_attr name attrs =
  List.find_opt (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

(* The payload must be exactly one non-empty string literal. *)
let justification (attr : Parsetree.attribute) =
  let malformed =
    Error
      (Printf.sprintf
         "malformed [@%s] payload: expected a single non-empty string \
          literal justifying the exemption"
         attr.attr_name.txt)
  in
  match attr.attr_payload with
  | PStr
      [ { pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _ } ] ->
    if String.trim s = "" then
      Error
        (Printf.sprintf "[@%s] has an empty justification string"
           attr.attr_name.txt)
    else Ok s
  | _ -> malformed

let has_inline attrs =
  List.exists
    (fun (a : Parsetree.attribute) ->
      a.attr_name.txt = "inline" || a.attr_name.txt = "ocaml.inline")
    attrs

(* --- Canonical names ---------------------------------------------------- *)

(* Dune name-mangles wrapped library modules ("Indq_core__Pruning"); split
   the dunder back out so references through the wrapper alias
   ("Indq_core.Pruning.f") and direct ones agree on one spelling. *)
let split_dunder s =
  let out = ref [] in
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' && Buffer.length buf > 0
    then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf;
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
  List.rev !out

(* Canonical components of a path, resolving local idents (module aliases
   and toplevel values of the module being scanned) through [resolve]. *)
let rec canon_path ~resolve (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match resolve id with
    | Some c -> c
    | None -> split_dunder (Ident.name id))
  | Path.Pdot (p, s) -> canon_path ~resolve p @ [ s ]
  | Path.Papply (p, _) -> canon_path ~resolve p
  | Path.Pextra_ty (p, _) -> canon_path ~resolve p

let dotted = String.concat "."

let suffix_is components suffix =
  let rec drop l n = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop t (n - 1) in
  let lc = List.length components and ls = List.length suffix in
  lc >= ls && drop components (lc - ls) = suffix

(* --- Global analysis state ---------------------------------------------- *)

type cls =
  | Unclassified
  | Safe of string     (* DLS-keyed / atomic / lock / mutex-guarded *)
  | Audited of string  (* [@@indq.domain_safe "why"] *)

type node = {
  n_canon : string;
  n_file : string;
  n_loc : Location.t;
  mutable n_refs : SSet.t;
  n_is_fun : bool;
  n_dls_refs : SSet.t option;  (* refs of the DLS.new_key init closure *)
  n_mut : string option;       (* Some kind-description when mutable *)
  mutable n_cls : cls;
}

type acc = {
  nodes : (string, node) Hashtbl.t;
  (* multi-binding: canonical name -> was this use under Mutex.protect? *)
  uses : (string, bool) Hashtbl.t;
  mutable seeds : SSet.t;     (* refs appearing in parallel_map arguments *)
  mutable spawners : SSet.t;  (* toplevel bindings containing a parallel_map *)
  annotated : (string, bool) Hashtbl.t;  (* canon -> has [@inline] *)
  mutable findings : finding list;
}

let emit acc ~file (loc : Location.t) code message =
  acc.findings <-
    { file;
      line = loc.Location.loc_start.Lexing.pos_lnum;
      col = loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol;
      code;
      message }
    :: acc.findings

(* --- Type heads --------------------------------------------------------- *)

let rec type_head ~resolve ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (canon_path ~resolve p)
  | Types.Tpoly (t, _) -> type_head ~resolve t
  | _ -> None

let is_float_ty ~resolve ty =
  match type_head ~resolve ty with Some [ "float" ] -> true | _ -> false

let is_arrow_ty ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* A [%caml_ba_*] primitive compiles to a plain load or store only when
   its array argument's kind and layout are fixed at the use site.  Left
   polymorphic (a kernel whose arguments no annotation pins down), it
   goes through the generic C accessor, which boxes every float it reads.
   The check reads the primitive's instantiated type: its first argument
   must contain no type variable. *)
let bigarray_kind_fixed ty =
  let rec closed ty =
    match Types.get_desc ty with
    | Types.Tvar _ | Types.Tunivar _ -> false
    | Types.Tconstr (_, args, _) -> List.for_all closed args
    | Types.Tarrow (_, a, b, _) -> closed a && closed b
    | Types.Ttuple ts -> List.for_all closed ts
    | Types.Tpoly (t, _) -> closed t
    | _ -> false
  in
  let rec first_arg ty =
    match Types.get_desc ty with
    | Types.Tarrow (_, a, _, _) -> Some a
    | Types.Tpoly (t, _) -> first_arg t
    | _ -> None
  in
  match first_arg ty with Some a -> closed a | None -> false

let mutable_type_kind head =
  if suffix_is head [ "Stdlib"; "ref" ] || head = [ "ref" ] then Some "ref cell"
  else if head = [ "array" ] then Some "array"
  else if head = [ "bytes" ] then Some "bytes"
  else if suffix_is head [ "Hashtbl"; "t" ] then Some "Hashtbl.t"
  else if suffix_is head [ "Buffer"; "t" ] then Some "Buffer.t"
  else if suffix_is head [ "Queue"; "t" ] then Some "Queue.t"
  else if suffix_is head [ "Stack"; "t" ] then Some "Stack.t"
  else None

let safe_type_kind head =
  if suffix_is head [ "Atomic"; "t" ] then Some "Atomic.t"
  else if suffix_is head [ "Mutex"; "t" ] then Some "Mutex.t"
  else if suffix_is head [ "Condition"; "t" ] then Some "Condition.t"
  else None

let is_function_expr (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* The bound ident of a simple binding.  [let x : t = e] elaborates to
   [Tpat_alias (Tpat_any, x, …)], so both shapes name a value. *)
let pat_ident (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

(* --- Phase A: per-module scan ------------------------------------------- *)

(* The per-module name environment survives into phase B so ANA002 sees the
   same alias resolution. *)
type menv = (string, string list) Hashtbl.t

let scan_module acc ~modname ~file (str : Typedtree.structure) : menv =
  let menv : menv = Hashtbl.create 64 in
  let resolve id = Hashtbl.find_opt menv (Ident.unique_name id) in
  let canon p = canon_path ~resolve p in
  let protect_depth = ref 0 in
  let current : node option ref = ref None in
  let collect_refs e =
    let out = ref SSet.empty in
    let it =
      { Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
            (match e.Typedtree.exp_desc with
            | Texp_ident (p, _, _) -> out := SSet.add (dotted (canon p)) !out
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e) }
    in
    it.expr it e;
    !out
  in
  let record_use c =
    Hashtbl.add acc.uses c (!protect_depth > 0);
    match !current with
    | Some n -> n.n_refs <- SSet.add c n.n_refs
    | None -> ()
  in
  let visit sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> record_use (dotted (canon p))
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      let c = canon p in
      record_use (dotted c);
      let iter_args () =
        List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args
      in
      if suffix_is c [ "Mutex"; "protect" ] then begin
        incr protect_depth;
        iter_args ();
        decr protect_depth
      end
      else begin
        if
          suffix_is c [ "Pool"; "parallel_map" ]
          || suffix_is c [ "Pool"; "parallel_map_seeded" ]
        then begin
          (* The task closure can capture anything its argument (or, when
             the closure is a local binding, the enclosing toplevel
             function) references. *)
          List.iter
            (fun (_, a) ->
              Option.iter
                (fun a -> acc.seeds <- SSet.union acc.seeds (collect_refs a))
                a)
            args;
          match !current with
          | Some n -> acc.spawners <- SSet.add n.n_canon acc.spawners
          | None -> ()
        end;
        iter_args ()
      end
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let expr_iter = { Tast_iterator.default_iterator with expr = visit } in
  let visit_expr e = visit expr_iter e in
  let scan_vb prefix (vb : Typedtree.value_binding) =
    match pat_ident vb.vb_pat with
    | Some id ->
      let components = prefix @ [ Ident.name id ] in
      Hashtbl.replace menv (Ident.unique_name id) components;
      let cname = dotted components in
      let attrs = vb.vb_attributes @ vb.vb_expr.exp_attributes in
      (match find_attr attr_alloc_free attrs with
      | Some a ->
        (match justification a with
        | Ok _ -> ()
        | Error m -> emit acc ~file a.attr_loc "ANA003" m);
        (* Register even when the payload is malformed so transitive
           ANA002 checking still works; ANA003 reports the payload. *)
        Hashtbl.replace acc.annotated cname (has_inline attrs)
      | None -> ());
      let body = vb.vb_expr in
      let dls_refs =
        match body.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
          when suffix_is (canon p) [ "DLS"; "new_key" ] ->
          Some
            (List.fold_left
               (fun s (_, a) ->
                 match a with
                 | Some a -> SSet.union s (collect_refs a)
                 | None -> s)
               SSet.empty args)
        | _ -> None
      in
      let head = type_head ~resolve body.exp_type in
      let mut =
        if is_function_expr body then None
        else
          match body.exp_desc with
          | Texp_record { fields; _ }
            when Array.exists
                   (fun ((ld : Types.label_description), _) ->
                     ld.lbl_mut = Asttypes.Mutable)
                   fields -> Some "record with mutable fields"
          | _ -> Option.bind head mutable_type_kind
      in
      let cls =
        if dls_refs <> None then Safe "DLS-keyed"
        else
          match find_attr attr_domain_safe attrs with
          | Some a -> (
            match justification a with
            | Ok why -> Audited why
            | Error m ->
              emit acc ~file a.attr_loc "ANA003" m;
              Unclassified)
          | None -> (
            match Option.bind head safe_type_kind with
            | Some k -> Safe k
            | None -> Unclassified)
      in
      let node =
        { n_canon = cname;
          n_file = file;
          n_loc = vb.vb_loc;
          n_refs = SSet.empty;
          n_is_fun = is_function_expr body;
          n_dls_refs = dls_refs;
          n_mut = mut;
          n_cls = cls }
      in
      Hashtbl.replace acc.nodes cname node;
      current := Some node;
      visit_expr body;
      current := None
    | None ->
      current := None;
      visit_expr vb.vb_expr
  in
  let rec scan_str prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter (scan_vb prefix) vbs
        | Tstr_module mb -> scan_mb prefix mb
        | Tstr_recmodule mbs -> List.iter (scan_mb prefix) mbs
        | Tstr_eval (e, _) ->
          current := None;
          visit_expr e
        | _ -> ())
      str.str_items
  and scan_mb prefix (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec unwrap (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_constraint (me, _, _, _) -> unwrap me
      | d -> d
    in
    match unwrap mb.mb_expr with
    | Tmod_ident (p, _) -> (
      match mb.mb_id with
      | Some id -> Hashtbl.replace menv (Ident.unique_name id) (canon p)
      | None -> ())
    | Tmod_structure s ->
      (match mb.mb_id with
      | Some id -> Hashtbl.replace menv (Ident.unique_name id) (prefix @ [ name ])
      | None -> ());
      scan_str (prefix @ [ name ]) s
    | _ -> ()
  in
  scan_str (split_dunder modname) str;
  menv

(* --- Phase B: ANA002 allocation-freedom --------------------------------- *)

(* Functions whose calls are accepted without annotation: the audited
   caller-bug guard (cold path by construction). *)
let builtin_allow = [ "Stdlib.invalid_arg" ]

type ctx = {
  fname : string;  (* display name of the annotated function being checked *)
  local_refs : (string, unit) Hashtbl.t;  (* unboxable local accumulators *)
}

let check_module acc ~file ~(menv : menv) (str : Typedtree.structure) =
  let resolve id = Hashtbl.find_opt menv (Ident.unique_name id) in
  let canon p = canon_path ~resolve p in
  (* Local [@indq.alloc_free] bindings, by stamp. *)
  let local_annot : (string, bool) Hashtbl.t = Hashtbl.create 16 in
  let is_ref_make (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply
        ( { exp_desc =
              Texp_ident
                (_, _, { val_kind = Val_prim { prim_name = "%makemutable"; _ }; _ });
            _ },
          [ (_, Some _) ] ) -> true
    | _ -> false
  in
  let ref_arg (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (_, [ (_, Some a) ]) -> Some a
    | _ -> None
  in
  let rec check ctx (e : Typedtree.expression) =
    let report ?(loc = e.exp_loc) msg =
      emit acc ~file loc "ANA002"
        (Printf.sprintf "in [@indq.alloc_free] %s: %s" ctx.fname msg)
    in
    match find_attr attr_alloc_ok e.exp_attributes with
    | Some a -> (
      match justification a with
      | Ok _ -> ()  (* audited allocation site: subtree accepted *)
      | Error m ->
        emit acc ~file a.attr_loc "ANA003" m;
        check_inner ctx report e)
    | None -> check_inner ctx report e
  and check_inner ctx report (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident _ | Texp_constant _ | Texp_unreachable -> ()
    | Texp_let (_, vbs, body) ->
      List.iter (check_local_vb ctx) vbs;
      check ctx body
    | Texp_function _ ->
      report
        "closure allocation: a function expression materializes a heap \
         closure; lift it out of the hot path or [@indq.alloc_ok] it"
    | Texp_apply (fn, args) -> check_apply ctx report e fn args
    | Texp_tuple _ ->
      report "tuple construction allocates"
    | Texp_construct (_, _, []) -> ()
    | Texp_construct (lid, _, args) ->
      report
        (Printf.sprintf "constructor %s with arguments allocates"
           (String.concat "." (Longident.flatten lid.txt)));
      List.iter (check ctx) args
    | Texp_variant (_, None) -> ()
    | Texp_variant (_, Some a) ->
      report "polymorphic-variant argument allocates";
      check ctx a
    | Texp_record _ -> report "record construction allocates"
    | Texp_array [] -> ()
    | Texp_array es ->
      report "array literal allocates";
      List.iter (check ctx) es
    | Texp_field (r, _, ld) ->
      if ld.lbl_repres = Types.Record_float then
        report "reading a float field out of a float record boxes the float";
      check ctx r
    | Texp_setfield (r, _, ld, v) ->
      (match ld.lbl_repres with
      | Types.Record_float -> ()  (* flat float block: unboxed store *)
      | _ ->
        if is_float_ty ~resolve v.exp_type then
          report
            "storing a float into a boxed mutable field allocates the box");
      check ctx r;
      check ctx v
    | Texp_sequence (a, b) | Texp_while (a, b) ->
      check ctx a;
      check ctx b
    | Texp_ifthenelse (c, t, eo) ->
      check ctx c;
      check ctx t;
      Option.iter (check ctx) eo
    | Texp_for (_, _, lo, hi, _, body) ->
      check ctx lo;
      check ctx hi;
      check ctx body
    | Texp_match (scrut, cases, _) ->
      check ctx scrut;
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          Option.iter (check ctx) c.c_guard;
          check ctx c.c_rhs)
        cases
    | Texp_try (b, cases) ->
      check ctx b;
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          Option.iter (check ctx) c.c_guard;
          check ctx c.c_rhs)
        cases
    | Texp_assert (c, _) -> check ctx c  (* failure path is cold *)
    | Texp_open (_, b) -> check ctx b
    | Texp_lazy _ -> report "lazy suspension allocates"
    | Texp_letop _ -> report "binding operators allocate closures"
    | _ ->
      report
        "construct not allowed in [@indq.alloc_free] code (object/module/\
         class-level expression)"
  and check_local_vb ctx (vb : Typedtree.value_binding) =
    let attrs = vb.vb_attributes @ vb.vb_expr.exp_attributes in
    match pat_ident vb.vb_pat, find_attr attr_alloc_free attrs with
    | Some id, Some a ->
      (match justification a with
      | Ok _ -> ()
      | Error m -> emit acc ~file a.attr_loc "ANA003" m);
      Hashtbl.replace local_annot (Ident.unique_name id) (has_inline attrs);
      (* The nested definition is itself a closure in an alloc-free body;
         its own body is checked as a fresh target. *)
      check_target ~name:(Ident.name id) vb.vb_expr
    | Some id, None when is_ref_make vb.vb_expr ->
      (* let r = ref e — a local accumulator the backend unboxes as long
         as it never escapes. *)
      Hashtbl.replace ctx.local_refs (Ident.unique_name id) ();
      Option.iter (check ctx) (ref_arg vb.vb_expr)
    | _, _ -> check ctx vb.vb_expr
  and check_apply ctx report (e : Typedtree.expression)
      (fn : Typedtree.expression) args =
    let iter_args ~escape_check () =
      List.iter
        (fun (_, a) ->
          Option.iter
            (fun (a : Typedtree.expression) ->
              (if escape_check then
                 match a.exp_desc with
                 | Texp_ident (Path.Pident id, _, _)
                   when Hashtbl.mem ctx.local_refs (Ident.unique_name id) ->
                   report ~loc:a.exp_loc
                     "local ref accumulator escapes as an argument, which \
                      defeats its unboxing"
                 | _ -> ());
              check ctx a)
            a)
        args
    in
    let partial () =
      if is_arrow_ty e.exp_type then
        report "partial application allocates a closure"
    in
    match fn.exp_desc with
    | Texp_ident (p, _, vd) -> (
      match vd.val_kind with
      | Val_prim prim ->
        (if String.length prim.prim_name > 0 && prim.prim_name.[0] = '%' then
           begin match prim.prim_name with
           | "%makemutable" ->
             report
               "ref allocation: bind it as a local `let r = ref …` \
                accumulator (unboxed) or lift it out of the hot path"
           | name
             when String.starts_with ~prefix:"%caml_ba_" name
                  && not (bigarray_kind_fixed fn.exp_type) ->
             report
               (Printf.sprintf
                  "%s on a Bigarray whose kind or layout is not fixed here \
                   compiles to the generic accessor, which boxes; annotate \
                   the array's type"
                  name)
           | "%revapply" | "%apply" ->
             report
               "|> / @@ obscure the callee from the allocation checker; \
                use direct application"
           | "%setfield0" -> (
             match args with
             | [ (_, Some r); (_, Some v) ] ->
               let local =
                 match r.exp_desc with
                 | Texp_ident (Path.Pident id, _, _) ->
                   Hashtbl.mem ctx.local_refs (Ident.unique_name id)
                 | _ -> false
               in
               if (not local) && is_float_ty ~resolve v.exp_type then
                 report
                   "float := into a captured/non-local ref boxes the float";
               check ctx v
             | _ -> ())
           | _ -> ()
           end
         else if prim.prim_alloc then
           report
             (Printf.sprintf
                "external %s is not [@@noalloc]; it may allocate or raise"
                prim.prim_name));
        (match prim.prim_name with
        | "%setfield0" -> ()  (* argument handling above *)
        | _ -> iter_args ~escape_check:false ());
        partial ()
      | _ ->
        let c = dotted (canon p) in
        let annotated_info =
          match p with
          | Path.Pident id
            when Hashtbl.mem local_annot (Ident.unique_name id) ->
            Some (Hashtbl.find local_annot (Ident.unique_name id))
          | _ -> Hashtbl.find_opt acc.annotated c
        in
        (match annotated_info with
        | Some inline ->
          if is_float_ty ~resolve e.exp_type && not inline then
            report
              (Printf.sprintf
                 "%s returns float across a non-[@inline] call boundary; \
                  the result is boxed"
                 c)
        | None ->
          if not (List.mem c builtin_allow) then
            report
              (Printf.sprintf
                 "call into non-annotated function %s; annotate it \
                  [@@indq.alloc_free \"…\"] or audit the call with \
                  [@indq.alloc_ok \"…\"]"
                 c));
        iter_args ~escape_check:true ();
        partial ())
    | _ ->
      report
        "indirect call through a computed function value cannot be \
         verified allocation-free";
      check ctx fn;
      iter_args ~escape_check:true ()
  and check_target ~name (body : Typedtree.expression) =
    let ctx = { fname = name; local_refs = Hashtbl.create 8 } in
    let rec strip (e : Typedtree.expression) =
      match e.exp_desc with
      | Texp_function { cases = [ c ]; _ } when c.c_guard = None ->
        strip c.c_rhs
      | Texp_function { cases; _ } ->
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            Option.iter (check ctx) c.c_guard;
            check ctx c.c_rhs)
          cases
      | _ -> check ctx e
    in
    strip body
  in
  (* Find every annotated binding (toplevel or local) and check its body;
     everything else recurses generically. *)
  let vb_override sub (vb : Typedtree.value_binding) =
    let attrs = vb.vb_attributes @ vb.vb_expr.exp_attributes in
    match pat_ident vb.vb_pat, find_attr attr_alloc_free attrs with
    | Some id, Some _ ->
      (* Payload validity was reported in phase A (toplevel) or will be by
         check_local_vb when nested; avoid double ANA003 here. *)
      Hashtbl.replace local_annot (Ident.unique_name id) (has_inline attrs);
      check_target ~name:(Ident.name id) vb.vb_expr
    | _, Some _ -> check_target ~name:"<binding>" vb.vb_expr
    | _, None -> Tast_iterator.default_iterator.value_binding sub vb
  in
  let it = { Tast_iterator.default_iterator with value_binding = vb_override } in
  it.structure it str

(* --- Classification + reachability (ANA001) ----------------------------- *)

let finalize acc =
  (* Mutex-guarded: every recorded use of the mutable sits under a
     Mutex.protect thunk (and there is at least one use). *)
  Hashtbl.iter
    (fun _ n ->
      if n.n_mut <> None && n.n_cls = Unclassified then begin
        let uses = Hashtbl.find_all acc.uses n.n_canon in
        if uses <> [] && List.for_all Fun.id uses then
          n.n_cls <- Safe "mutex-guarded"
      end)
    acc.nodes;
  (* BFS over the call graph from everything a parallel task can reach. *)
  let roots =
    SSet.fold
      (fun s acc_refs ->
        match Hashtbl.find_opt acc.nodes s with
        | Some n -> SSet.union acc_refs n.n_refs
        | None -> acc_refs)
      acc.spawners acc.seeds
  in
  let visited = ref SSet.empty in
  let queue = Queue.create () in
  SSet.iter (fun s -> Queue.add s queue) roots;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    if not (SSet.mem c !visited) then begin
      visited := SSet.add c !visited;
      match Hashtbl.find_opt acc.nodes c with
      | Some n ->
        let next = if n.n_is_fun then n.n_refs else SSet.empty in
        let next =
          match n.n_dls_refs with
          | Some r -> SSet.union next r
          | None -> next
        in
        SSet.iter
          (fun s -> if not (SSet.mem s !visited) then Queue.add s queue)
          next
      | None -> ()
    end
  done;
  Hashtbl.iter
    (fun _ n ->
      match n.n_mut, n.n_cls with
      | Some kind, Unclassified when SSet.mem n.n_canon !visited ->
        emit acc ~file:n.n_file n.n_loc "ANA001"
          (Printf.sprintf
             "toplevel mutable %s (%s) is reachable from a \
              Pool.parallel_map task body but is neither DLS-keyed, \
              Atomic, mutex-guarded, nor audited; guard it or annotate \
              [@@indq.domain_safe \"why\"]"
             n.n_canon kind)
      | _ -> ())
    acc.nodes;
  !visited

(* --- Entry point -------------------------------------------------------- *)

let run (inputs : input list) : finding list * stats =
  let acc =
    { nodes = Hashtbl.create 512;
      uses = Hashtbl.create 4096;
      seeds = SSet.empty;
      spawners = SSet.empty;
      annotated = Hashtbl.create 64;
      findings = [] }
  in
  let inputs =
    List.sort (fun a b -> String.compare a.in_file b.in_file) inputs
  in
  let menvs =
    List.map
      (fun i ->
        (i, scan_module acc ~modname:i.in_modname ~file:i.in_file i.in_structure))
      inputs
  in
  let _reachable = finalize acc in
  List.iter
    (fun (i, menv) -> check_module acc ~file:i.in_file ~menv i.in_structure)
    menvs;
  let mutables =
    Hashtbl.fold (fun _ n k -> if n.n_mut <> None then k + 1 else k) acc.nodes 0
  in
  let stats =
    { st_modules = List.length inputs;
      st_annotated = Hashtbl.length acc.annotated;
      st_mutables = mutables;
      st_spawners = SSet.cardinal acc.spawners }
  in
  (List.sort finding_compare acc.findings, stats)
