(** Guard-completeness certifier.

    Runs the {!Guard_cover} domain through the {!Dataflow} solver and
    proves that every reachable [Load]/[Store] in the module is
    dominated (on every path) by a [carat_guard] call whose coverage —
    base value, byte interval and access flags — subsumes the access.
    This is the static soundness argument the paper's attestation only
    gestures at: not just "the transform pass ran", but "after
    [guard_elim]/[guard_hoist]/[dce] rewrote guard placement, no access
    escaped".

    The proof is summarized in a machine-checkable {b certificate}: a
    one-line per-function guard census plus a digest of the canonical
    module body, stored under the {!Passes.Attest.meta_cert} key and
    covered by the code signature. {!validate} re-derives the
    certificate at load time, so the kernel can refuse modules whose
    certificate is missing, stale (body changed since certification) or
    fails re-analysis.

    The certifier honours the recorded injection configuration:
    accesses exempted by [exempt_stack] are accepted when they are
    provably derived from the function's own allocas, and access kinds
    the configuration never promised to guard are not required. *)

open Kir.Types
module GC = Guard_cover

type access_kind = A_load | A_store

let access_kind_to_string = function A_load -> "load" | A_store -> "store"

type uncovered = {
  u_func : string;
  u_block : label;
  u_iid : int;  (** function-wide instruction id *)
  u_kind : access_kind;
  u_addr : string;  (** printed symbolic address *)
  u_size : int;
}

type guard_site = {
  gs_func : string;
  gs_block : label;
  gs_iid : int;
  gs_site : int;  (** compiler-assigned site id; -1 for the 3-arg form *)
  gs_used : bool;  (** justifies at least one reachable access *)
  gs_redundant : bool;  (** its coverage was already established *)
  gs_shadowed_by : int list;  (** iids of the guards that subsume it *)
}

type func_summary = {
  fs_name : string;
  fs_accesses : int;  (** reachable loads + stores *)
  fs_covered : int;  (** proven covered by a guard fact *)
  fs_exempt : int;  (** alloca-derived under [exempt_stack] *)
  fs_skipped : int;  (** kinds the injection config never guards *)
  fs_guards : guard_site list;
  fs_uncovered : uncovered list;
  fs_unreachable : label list;
  fs_sweeps : int;  (** dataflow sweeps to fixpoint *)
}

type summary = {
  s_guard_symbol : string;
  s_exempt_stack : bool;
  s_guard_reads : bool;
  s_guard_writes : bool;
  s_funcs : func_summary list;
}

let bool_meta m key ~default =
  match meta_find m key with Some v -> v = "true" | None -> default

(** The census of one function from its guard-coverage solution [sv],
    solved under [ctx]. Raises {!Dataflow.Diverged} if that solve
    diverged. *)
let analyze_func ~(ctx : GC.ctx) ~exempt_stack ~guard_reads ~guard_writes
    (sv : Summaries.solved) : func_summary =
  let guard_symbol = ctx.GC.guard_symbol in
  let f = sv.Summaries.sv_func
  and cfg = sv.Summaries.cfg
  and bodies = sv.Summaries.bodies
  and iid_base = sv.Summaries.iid_base in
  (* induction-variable ranges: lets one widened pre-header guard prove
     every iteration of a counted loop (see {!Range}) *)
  let ranges = Range.analyze_func cfg (Passes.Loops.compute cfg) in
  let total = Array.fold_left (fun n body -> n + Array.length body) 0 bodies in
  let instr_at = Array.make (max total 1) (Inline_asm "") in
  Array.iteri
    (fun i body ->
      Array.iteri (fun k ins -> instr_at.(iid_base.(i) + k) <- ins) body)
    bodies;
  let sol =
    match sv.Summaries.sol with
    | Ok sol -> sol
    | Error why -> raise (Dataflow.Diverged why)
  in
  let is_alloca_core = function
    | GC.S_def k when k >= 0 && k < Array.length instr_at -> (
      match instr_at.(k) with Alloca _ -> true | _ -> false)
    | _ -> false
  in
  let used : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let guards = ref [] in
  let uncov = ref [] in
  let unreachable = ref [] in
  let accesses = ref 0
  and covered = ref 0
  and exempt = ref 0
  and skipped = ref 0 in
  Array.iteri
    (fun b body ->
      match sol.Dataflow.block_in.(b) with
      | None -> unreachable := (Kir.Cfg.block cfg b).b_label :: !unreachable
      | Some t0 ->
        let lbl = (Kir.Cfg.block cfg b).b_label in
        let bounds = Range.bounds_at ranges ~block:b in
        let t = ref t0 in
        Array.iteri
          (fun k ins ->
            let iid = iid_base.(b) + k in
            (match ins with
            | Load { ty; addr; _ } | Store { ty; addr; _ } ->
              let kind = match ins with Load _ -> A_load | _ -> A_store in
              let size = size_of_ty ty in
              let flags =
                match kind with
                | A_load -> Passes.Guard_injection.flag_read
                | A_store -> Passes.Guard_injection.flag_write
              in
              incr accesses;
              let sv = GC.sv_of !t.GC.env addr in
              (match GC.covering_fact ~bounds !t sv ~size ~flags with
              | Some cf ->
                incr covered;
                List.iter (fun o -> Hashtbl.replace used o ()) cf.GC.origins
              | None ->
                let core, _ = GC.base_off sv in
                if exempt_stack && is_alloca_core core then incr exempt
                else if
                  (kind = A_load && not guard_reads)
                  || (kind = A_store && not guard_writes)
                then incr skipped
                else
                  uncov :=
                    {
                      u_func = f.f_name;
                      u_block = lbl;
                      u_iid = iid;
                      u_kind = kind;
                      u_addr = GC.sv_to_string sv;
                      u_size = size;
                    }
                    :: !uncov)
            | Call { callee; args; _ } when callee = guard_symbol -> (
              match GC.parse_guard_args args with
              | Some (addr, size, flags, site) ->
                let sv = GC.sv_of !t.GC.env addr in
                let shadow = GC.covering_fact ~bounds !t sv ~size ~flags in
                guards :=
                  {
                    gs_func = f.f_name;
                    gs_block = lbl;
                    gs_iid = iid;
                    gs_site = site;
                    gs_used = false;
                    gs_redundant = shadow <> None;
                    gs_shadowed_by =
                      (match shadow with
                      | Some cf -> cf.GC.origins
                      | None -> []);
                  }
                  :: !guards
              | None -> ())
            | _ -> ());
            t := GC.transfer_instr ctx ~iid !t ins)
          body)
    bodies;
  let guards =
    List.rev_map (fun g -> { g with gs_used = Hashtbl.mem used g.gs_iid }) !guards
  in
  {
    fs_name = f.f_name;
    fs_accesses = !accesses;
    fs_covered = !covered;
    fs_exempt = !exempt;
    fs_skipped = !skipped;
    fs_guards = guards;
    fs_uncovered = List.rev !uncov;
    fs_unreachable = List.rev !unreachable;
    fs_sweeps = sol.Dataflow.sweeps;
  }

(** Does the module's signed metadata declare aggressive optimization?
    Only then does the certifier widen its proof search with
    interprocedural summaries — unoptimized modules keep the paper's
    strictly intraprocedural obligations, so e.g. the mutation sweep on
    a default-pipeline module behaves exactly as before. *)
let interprocedural m =
  meta_find m Passes.Guard_injection.meta_opt_level = Some "aggressive"

(** Per-function results carried across the analyses of one module
    while the optimizer rewrites it (see {!Summaries.memo}): a census
    stands while the summaries report the same solve it was taken from,
    under the same injection configuration. *)
type memo = {
  solves : Summaries.memo;
  census : (string, int * (bool * bool * bool) * func_summary) Hashtbl.t;
}

let memo () = { solves = Summaries.memo (); census = Hashtbl.create 32 }

(** Analyze every function of [m] under its recorded injection
    configuration, from scratch unless [memo] is given. Raises
    {!Dataflow.Diverged} only for a broken domain — callers treat that
    as a refusal, never as success. *)
let analyze ?memo ?guard_symbol (m : modul) : summary =
  let guard_symbol =
    match guard_symbol with
    | Some s -> s
    | None -> (
      match meta_find m Passes.Guard_injection.meta_guard_symbol with
      | Some s -> s
      | None -> Passes.Guard_injection.guard_symbol_default)
  in
  let exempt_stack =
    bool_meta m Passes.Guard_injection.meta_exempt_stack ~default:false
  in
  let guard_reads =
    bool_meta m Passes.Guard_injection.meta_guard_reads ~default:true
  in
  let guard_writes =
    bool_meta m Passes.Guard_injection.meta_guard_writes ~default:true
  in
  (* interprocedurally, the summaries' fixpoint has already solved
     every function under the final summaries: read those solutions
     rather than solving again *)
  let ctx, kept, solve_id =
    if interprocedural m then
      let s =
        Summaries.compute
          ?memo:(Option.map (fun mm -> mm.solves) memo)
          ~guard_symbol m
      in
      (Summaries.ctx s, Summaries.solution s, Summaries.solve_id s)
    else
      ( {
          GC.guard_symbol;
          neutral = Summaries.default_neutral;
          call_effect = (fun _ -> GC.opaque_effect);
        },
        (fun _ -> None),
        fun _ -> None )
  in
  let config = (exempt_stack, guard_reads, guard_writes) in
  let census (f : func) =
    let count () =
      let sv =
        match kept f with Some sv -> sv | None -> Summaries.solve_func ~ctx f
      in
      (sv.Summaries.sv_id,
       analyze_func ~ctx ~exempt_stack ~guard_reads ~guard_writes sv)
    in
    match memo with
    | None -> snd (count ())
    | Some mm -> (
      match (solve_id f, Hashtbl.find_opt mm.census f.f_name) with
      | Some id, Some (id', c, fs) when id = id' && c = config -> fs
      | _ ->
        let id, fs = count () in
        Hashtbl.replace mm.census f.f_name (id, config, fs);
        fs)
  in
  {
    s_guard_symbol = guard_symbol;
    s_exempt_stack = exempt_stack;
    s_guard_reads = guard_reads;
    s_guard_writes = guard_writes;
    s_funcs = List.map census m.funcs;
  }

(* -- certificate --------------------------------------------------- *)

(** Digest of the canonical (meta-free) module body; ties the
    certificate to the exact code it was derived from. *)
let body_digest m =
  Printf.sprintf "%016x"
    (Passes.Signing.fnv1a64 (Kir.Printer.to_string ~with_meta:false m))

(** Module-metadata key naming the policy domain this module is meant to
    run under. When present, {!certify} stamps the domain into the
    certificate, so the proof names the policy it was derived against —
    a certificate for one tenant's domain cannot be replayed as another
    tenant's. Meta keys are outside {!body_digest}, so stamping the
    domain does not invalidate the body digest. *)
let meta_domain = "certify.domain"

let set_domain m name = meta_set m meta_domain name

let render ?domain ~digest (s : summary) =
  let per_func =
    List.map
      (fun fs ->
        Printf.sprintf "%s=%d,%d,%d,%d" fs.fs_name fs.fs_accesses fs.fs_covered
          fs.fs_exempt
          (List.length fs.fs_guards))
      s.s_funcs
  in
  String.concat ";"
    ([
       "v1";
       "digest=" ^ digest;
       "guard=" ^ s.s_guard_symbol;
       Printf.sprintf "exempt=%b" s.s_exempt_stack;
     ]
    @ (match domain with Some d -> [ "domain=" ^ d ] | None -> [])
    @ per_func
    @ [ "verdict=certified" ])

(** Prove guard completeness with [domain] taken verbatim ([None] = an
    undomained, pre-multi-tenant certificate — the wire format is
    unchanged when no domain is named). *)
let certify_as ?memo ~domain (m : modul) : (string * summary, string) result =
  match analyze ?memo m with
  | exception Dataflow.Diverged why -> Error ("analysis diverged: " ^ why)
  | s -> (
    let uncov = List.concat_map (fun fs -> fs.fs_uncovered) s.s_funcs in
    match uncov with
    | [] -> Ok (render ?domain ~digest:(body_digest m) s, s)
    | u :: _ ->
      Error
        (Printf.sprintf
           "%d unguarded access(es); first: %s of %d bytes at %s in @%s \
            block %s"
           (List.length uncov)
           (access_kind_to_string u.u_kind)
           u.u_size u.u_addr u.u_func u.u_block))

(** Prove guard completeness; [Ok (certificate, summary)] or a human-
    readable refusal naming the first unguarded access. The certificate
    names [domain] when given (or the module's {!meta_domain} stamp). *)
let certify ?memo ?domain (m : modul) : (string * summary, string) result =
  let domain =
    match domain with Some _ -> domain | None -> meta_find m meta_domain
  in
  certify_as ?memo ~domain m

let certificate ?domain m = Result.map fst (certify ?domain m)

let stored_field prefix cert =
  let lp = String.length prefix in
  String.split_on_char ';' cert
  |> List.find_map (fun field ->
         if String.length field > lp && String.sub field 0 lp = prefix then
           Some (String.sub field lp (String.length field - lp))
         else None)

let stored_digest cert = stored_field "digest=" cert

(** The policy domain a certificate was proven against; [None] for
    undomained certificates. *)
let stored_domain cert = stored_field "domain=" cert

type validate_error =
  | Cert_missing
  | Cert_stale of { expected : string; found : string }
      (** module body changed after certification *)
  | Cert_invalid of string  (** re-analysis refuses the module *)
  | Cert_mismatch  (** census differs from re-analysis *)
  | Cert_wrong_domain of { expected : string; found : string option }
      (** the certificate was proven against a different policy domain
          than the one the module is being loaded into *)

let validate_error_to_string = function
  | Cert_missing -> "module carries no guard-completeness certificate"
  | Cert_stale { expected; found } ->
    Printf.sprintf
      "certificate is stale: module body digest %s, certificate claims %s"
      expected found
  | Cert_invalid reason -> "certificate re-validation failed: " ^ reason
  | Cert_mismatch -> "certificate census does not match re-analysis"
  | Cert_wrong_domain { expected; found } ->
    Printf.sprintf
      "certificate proven against domain %s, but load targets domain %s"
      (match found with Some d -> d | None -> "<none>")
      expected

(** Load-time re-validation: the stored certificate must exist, match
    the current body digest, and equal the freshly re-derived
    certificate bit for bit. Re-derivation uses the domain the stored
    certificate names (so pre-domain certificates keep validating);
    [expect_domain] additionally pins WHICH domain the certificate must
    have been proven against. *)
let validate ?expect_domain (m : modul) : (unit, validate_error) result =
  match meta_find m Passes.Attest.meta_cert with
  | None -> Error Cert_missing
  | Some stored -> (
    let expected = body_digest m in
    match stored_digest stored with
    | None -> Error (Cert_invalid "certificate carries no digest field")
    | Some found when found <> expected -> Error (Cert_stale { expected; found })
    | Some _ -> (
      let domain = stored_domain stored in
      match expect_domain with
      | Some e when domain <> Some e ->
        Error (Cert_wrong_domain { expected = e; found = domain })
      | _ -> (
        match Result.map fst (certify_as ~domain m) with
        | Error reason -> Error (Cert_invalid reason)
        | Ok fresh ->
          if String.equal fresh stored then Ok () else Error Cert_mismatch)))

(* -- one proof per compile ------------------------------------------ *)

(* everything of the module's metadata that {!certify} reads: with the
   body digest, it determines the certificate and its summary *)
let analysis_key m =
  List.map (meta_find m)
    [
      meta_domain;
      Passes.Guard_injection.meta_guard_symbol;
      Passes.Guard_injection.meta_exempt_stack;
      Passes.Guard_injection.meta_guard_reads;
      Passes.Guard_injection.meta_guard_writes;
      Passes.Guard_injection.meta_opt_level;
    ]

type offered = {
  o_module : modul;
  o_digest : string;
  o_key : string option list;
  o_proof : string * summary;
}

(* one slot, read once: the certify pass empties it, so the module is
   not kept alive past the compile that offered it *)
let slot : offered option ref = ref None

(** Hand the certify pass of this compile a proof [certify m] has just
    returned for [m]. The certified optimizer offers its final proof so
    the pipeline does not prove the same module twice. *)
let offer m ((cert, _) as proof) =
  slot :=
    Option.map
      (fun d ->
        { o_module = m; o_digest = d; o_key = analysis_key m; o_proof = proof })
      (stored_digest cert)

(* empty the slot; its proof if it was offered for this very module and
   neither the body nor the metadata the proof depends on has changed
   since. Only the certify pass reads it: {!certify}, {!certify_as} and
   {!validate} always prove from scratch *)
let take m =
  let o = !slot in
  slot := None;
  match o with
  | Some o
    when o.o_module == m
         && o.o_key = analysis_key m
         && String.equal o.o_digest (body_digest m) ->
    Some o.o_proof
  | _ -> None

(* -- pass ---------------------------------------------------------- *)

let run (m : modul) : Passes.Pass.result =
  match match take m with Some p -> Ok p | None -> certify m with
  | Error reason -> Passes.Pass.fail "certify" "%s" reason
  | Ok (cert, s) ->
    meta_set m Passes.Attest.meta_cert cert;
    let sum f = List.fold_left (fun n fs -> n + f fs) 0 s.s_funcs in
    {
      Passes.Pass.changed = true;
      remarks =
        [
          ("accesses", string_of_int (sum (fun fs -> fs.fs_accesses)));
          ("guards", string_of_int (sum (fun fs -> List.length fs.fs_guards)));
          ("verdict", "certified");
        ];
    }

let pass () = Passes.Pass.make "certify" run

(* registering here lets the pipelines (one library below us) insert
   the certifier without a dependency cycle; any program that touches
   this library gets certified pipelines *)
let () = Passes.Pipeline.set_certifier pass
