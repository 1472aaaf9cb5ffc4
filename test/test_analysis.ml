(* Analysis: the dataflow solver, the guard-coverage domain, the
   guard-completeness certifier, certificate validation at module scale,
   and the KIR lints. *)

open Carat_kop
open Kir.Types

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let guard_sym = "carat_guard"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------- fixtures ---------- *)

let straightline_module () =
  let b = Kir.Builder.create "straight" in
  ignore (Kir.Builder.declare_global b "g" ~size:32);
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  let v1 = Kir.Builder.load b I64 (Reg "%p") in
  let v2 = Kir.Builder.load b I64 (Reg "%p") in
  let s = Kir.Builder.add b I64 v1 v2 in
  Kir.Builder.store b I64 s (Sym "g");
  Kir.Builder.ret b (Some s);
  Kir.Builder.modul b

let diamond_module () =
  let b = Kir.Builder.create "diamond" in
  ignore (Kir.Builder.declare_global b "g" ~size:32);
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  Kir.Builder.if_then_else b (Reg "%p")
    ~then_:(fun () -> ignore (Kir.Builder.load b I64 (Reg "%p")))
    ~else_:(fun () -> Kir.Builder.store b I64 (Imm 7) (Sym "g"));
  let v = Kir.Builder.load b I64 (Sym "g") in
  Kir.Builder.ret b (Some v);
  Kir.Builder.modul b

let loop_module () =
  let b = Kir.Builder.create "loopy" in
  ignore (Kir.Builder.declare_global b "table" ~size:64);
  ignore
    (Kir.Builder.start_func b "walk" ~params:[ ("%n", I64) ] ~ret:(Some I64));
  Kir.Builder.mov_to b "%acc" I64 (Imm 0);
  Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Reg "%n") ~step:(Imm 1)
    (fun _i ->
      let v = Kir.Builder.load b I64 (Sym "table") in
      let s = Kir.Builder.add b I64 (Reg "%acc") v in
      Kir.Builder.mov_to b "%acc" I64 s);
  Kir.Builder.ret b (Some (Reg "%acc"));
  Kir.Builder.modul b

(* a hand-guarded module: guard(args) immediately before each access,
   without running the injection pass *)
let manual_module ~guard_flags ~access () =
  let b = Kir.Builder.create "manual" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call
       { dst = None; callee = guard_sym;
         args = [ Reg "%p"; Imm 8; Imm guard_flags ] });
  (match access with
  | `Load -> ignore (Kir.Builder.load b I32 (Reg "%p"))
  | `Store -> Kir.Builder.store b I32 (Imm 1) (Reg "%p"));
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  m

let inject m =
  ignore (Passes.Guard_injection.run Passes.Guard_injection.default_config m);
  m

let optimize m =
  ignore (Passes.Guard_elim.run ~guard_symbol:guard_sym m);
  ignore (Passes.Guard_hoist.run ~guard_symbol:guard_sym m);
  ignore (Passes.Dce.run m);
  m

(* ---------- dataflow solver ---------- *)

let test_dataflow_block_counting () =
  (* saturating path-length domain: checks RPO iteration, joins, and
     convergence around the loop's back edge *)
  let m = loop_module () in
  let f = List.hd m.funcs in
  let cfg = Kir.Cfg.of_func f in
  let d =
    {
      Analysis.Dataflow.entry = 0;
      equal = Int.equal;
      join = (fun ~block:_ xs -> List.fold_left max 0 xs);
      transfer = (fun ~block:_ x -> min (x + 1) 8);
    }
  in
  let s = Analysis.Dataflow.solve d cfg in
  checkb "converged" true (s.Analysis.Dataflow.sweeps > 0);
  Array.iteri
    (fun i out ->
      match out with
      | Some v -> checkb (Printf.sprintf "block %d visited" i) true (v > 0)
      | None -> Alcotest.fail "reachable block not solved")
    s.Analysis.Dataflow.block_out

let test_dataflow_unreachable_stays_bottom () =
  let m = straightline_module () in
  let f = List.hd m.funcs in
  f.blocks <-
    f.blocks @ [ { b_label = "island"; body = []; term = Ret None } ];
  let cfg = Kir.Cfg.of_func f in
  let d =
    {
      Analysis.Dataflow.entry = ();
      equal = (fun () () -> true);
      join = (fun ~block:_ _ -> ());
      transfer = (fun ~block:_ () -> ());
    }
  in
  let s = Analysis.Dataflow.solve d cfg in
  let island = Kir.Cfg.index_of cfg "island" in
  checkb "island unsolved" true (s.Analysis.Dataflow.block_in.(island) = None)

(* ---------- certifier: positive and negative ---------- *)

let test_certify_rejects_raw () =
  match Analysis.Certify.certify (straightline_module ()) with
  | Error msg -> checkb "mentions unguarded" true (contains msg "unguarded")
  | Ok _ -> Alcotest.fail "unguarded module certified"

let test_certify_after_injection () =
  List.iter
    (fun mk ->
      let m = inject (mk ()) in
      match Analysis.Certify.certify m with
      | Ok (_, s) ->
        let covered =
          List.fold_left
            (fun n fs -> n + fs.Analysis.Certify.fs_covered)
            0 s.Analysis.Certify.s_funcs
        in
        checkb "covers accesses" true (covered > 0)
      | Error msg -> Alcotest.fail ("injected module failed: " ^ msg))
    [ straightline_module; diamond_module; loop_module ]

let test_certify_after_optimization () =
  List.iter
    (fun mk ->
      let m = optimize (inject (mk ())) in
      match Analysis.Certify.certify m with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("optimized module failed: " ^ msg))
    [ straightline_module; diamond_module; loop_module ]

let test_certify_hoisted_loop () =
  (* hoisting must actually fire on the loop fixture, and the hoisted
     guard must still dominate the in-loop access for the certifier *)
  let m = inject (loop_module ()) in
  let before = Passes.Guard_injection.count_guards m in
  ignore (Passes.Guard_elim.run ~guard_symbol:guard_sym m);
  let r = Passes.Guard_hoist.run ~guard_symbol:guard_sym m in
  checkb "hoist fired" true r.Passes.Pass.changed;
  checkb "guard moved, not dropped" true
    (Passes.Guard_injection.count_guards m <= before);
  checkb "still certifies" true (Result.is_ok (Analysis.Certify.certify m))

let test_certify_coverage_subsumption () =
  (* an 8-byte rw guard covers a narrower access at the same base *)
  checkb "load under rw guard" true
    (Result.is_ok
       (Analysis.Certify.certify (manual_module ~guard_flags:3 ~access:`Load ())));
  checkb "store under rw guard" true
    (Result.is_ok
       (Analysis.Certify.certify
          (manual_module ~guard_flags:3 ~access:`Store ())));
  (* a read-only guard does not license a store *)
  checkb "store under ro guard rejected" true
    (Result.is_error
       (Analysis.Certify.certify
          (manual_module ~guard_flags:1 ~access:`Store ())))

let test_certify_kill_at_opaque_call () =
  (* an un-analyzed callee invalidates coverage: it may unmap the page *)
  let m = manual_module ~guard_flags:3 ~access:`Load () in
  let f = List.hd m.funcs in
  m.externs <- m.externs @ [ ("ext", 0) ];
  (match f.blocks with
  | blk :: _ ->
    blk.body <-
      (match blk.body with
      | guard :: rest ->
        (guard :: [ Call { dst = None; callee = "ext"; args = [] } ]) @ rest
      | [] -> assert false)
  | [] -> assert false);
  checkb "opaque call kills coverage" true
    (Result.is_error (Analysis.Certify.certify m))

(* ---------- differential property ---------- *)

let gen_module =
  QCheck.Gen.(
    let gen_ty = oneofl [ I8; I16; I32; I64 ] in
    let* n = int_range 1 10 in
    let* ops = list_repeat n (tup2 gen_ty (int_bound 3)) in
    let* with_loop = bool in
    let b = Kir.Builder.create "gen" in
    ignore (Kir.Builder.declare_global b "g" ~size:256);
    ignore
      (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
    List.iter
      (fun (ty, kind) ->
        match kind with
        | 0 -> ignore (Kir.Builder.load b ty (Reg "%p"))
        | 1 -> Kir.Builder.store b ty (Imm 5) (Sym "g")
        | 2 ->
          let a = Kir.Builder.gep b (Reg "%p") (Imm 4) ~scale:1 in
          ignore (Kir.Builder.load b ty a)
        | _ -> ignore (Kir.Builder.load b ty (Reg "%p")))
      ops;
    if with_loop then
      Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Imm 8) ~step:(Imm 1)
        (fun i ->
          (* one invariant (hoistable) and one variant access *)
          ignore (Kir.Builder.load b I64 (Sym "g"));
          let a = Kir.Builder.gep b (Reg "%p") i ~scale:8 in
          Kir.Builder.store b I64 (Imm 1) a);
    Kir.Builder.ret b (Some (Imm 0));
    return (Kir.Builder.modul b))

let prop_certify_differential =
  QCheck.Test.make
    ~name:"random module certifies after injection and after optimization"
    ~count:80 (QCheck.make gen_module) (fun m ->
      let m = inject m in
      let ok_injected = Result.is_ok (Analysis.Certify.certify m) in
      let m = optimize m in
      ok_injected
      && Result.is_ok (Analysis.Certify.certify m)
      && Kir.Verify.is_valid m)

(* ---------- optimizer differential property ---------- *)

(* Random modules, random (object-granular) policies: the aggressive
   optimizer must preserve the observable behavior of the unoptimized
   compile — same return value, same final memory, same allow/deny
   verdict — while never executing more checks; and neither compile may
   behave differently across the two execution engines. *)

(* pure case data, so the same description builds two identical modules *)
let gen_opt_case =
  QCheck.Gen.(
    let* n_ops = int_range 1 6 in
    let* ops = list_repeat n_ops (tup2 (int_bound 3) (int_bound 3)) in
    let* loop_n = int_range 2 9 in
    let* widenable = bool in
    let* cover_buf = bool in
    let* buf_prot = int_range 1 3 in
    let* cover_infra = frequency [ (3, return true); (1, return false) ] in
    return (ops, loop_n, widenable, cover_buf, buf_prot, cover_infra))

let build_opt_module (ops, loop_n, widenable) =
  let b = Kir.Builder.create "diff" in
  ignore (Kir.Builder.declare_global b "g" ~size:256);
  (* a callee whose guard guarantees its parameter: interprocedural
     elimination can spare the caller's own check *)
  ignore (Kir.Builder.start_func b "h" ~params:[ ("%q", I64) ] ~ret:None);
  Kir.Builder.store b I64 (Imm 0x11) (Reg "%q");
  Kir.Builder.ret b None;
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:(Some I64));
  Kir.Builder.mov_to b "%acc" I64 (Imm 0);
  ignore (Kir.Builder.call b "h" [ Reg "%p" ]);
  List.iter
    (fun (t, kind) ->
      let ty = List.nth [ I8; I16; I32; I64 ] t in
      let accum v =
        let s = Kir.Builder.add b I64 (Reg "%acc") v in
        Kir.Builder.mov_to b "%acc" I64 s
      in
      match kind with
      | 0 -> accum (Kir.Builder.load b ty (Reg "%p"))
      | 1 -> Kir.Builder.store b ty (Imm 0x2A) (Sym "g")
      | 2 ->
        (* adjacent-offset access: coalescing fodder *)
        let a = Kir.Builder.gep b (Reg "%p") (Imm 8) ~scale:1 in
        Kir.Builder.store b ty (Imm 0x33) a
      | _ -> accum (Kir.Builder.load b ty (Sym "g")))
    ops;
  (* counted loop over buf: hoist-widening fodder when the stride is
     within the access width *)
  Kir.Builder.for_loop b ~init:(Imm 0) ~limit:(Imm loop_n) ~step:(Imm 1)
    (fun i ->
      let scale = if widenable then 8 else 1 in
      let a = Kir.Builder.gep b (Reg "%p") i ~scale in
      Kir.Builder.store b I64 (Imm 0x44) a);
  Kir.Builder.ret b (Some (Reg "%acc"));
  Kir.Builder.modul b

(* run [m] to completion under an object-granular policy (each
   allocation entirely in or entirely out); audit mode, so denies are
   recorded but execution continues and final memory is meaningful *)
let exec_opt_case m ~engine ~cover_buf ~buf_prot ~cover_infra =
  let k = Kernel.create ~require_signature:false Machine.Presets.r350 in
  ignore (Vm.Engine.install ~kind:engine k);
  let pm =
    Policy.Policy_module.install ~kind:Policy.Engine.Shadow ~site_cache:true
      ~on_deny:Policy.Policy_module.Audit k
  in
  let buf = Kernel.kmalloc k ~size:256 in
  Policy.Policy_module.set_policy pm
    ((if cover_buf then
        [ Policy.Region.v ~tag:"buf" ~base:buf ~len:256 ~prot:buf_prot () ]
      else [])
    @
    if cover_infra then
      [
        Policy.Region.v ~tag:"module-area" ~base:Kernel.Layout.module_base
          ~len:Kernel.Layout.module_area_size ~prot:Policy.Region.prot_rw ();
      ]
    else []);
  (match Kernel.insmod k m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e));
  let ret = Kernel.call_symbol k "f" [| buf |] in
  let mem = List.init 32 (fun i -> Kernel.read k ~addr:(buf + (8 * i)) ~size:8) in
  let st = Policy.Engine.stats (Policy.Policy_module.engine pm) in
  ( ret,
    mem,
    st.Policy.Engine.checks,
    st.Policy.Engine.allowed,
    st.Policy.Engine.denied )

let prop_optimizer_differential =
  QCheck.Test.make
    ~name:
      "aggressive opt preserves return, memory, and verdict; fewer checks; \
       engine parity"
    ~count:20 (QCheck.make gen_opt_case)
    (fun (ops, loop_n, widenable, cover_buf, buf_prot, cover_infra) ->
      let run opt engine =
        let m = build_opt_module (ops, loop_n, widenable) in
        ignore (Passes.Pipeline.compile ~opt m);
        exec_opt_case m ~engine ~cover_buf ~buf_prot ~cover_infra
      in
      let ((r_n, m_n, c_n, a_n, d_n) as none_i) =
        run Passes.Pipeline.O_none Vm.Engine.Interp
      in
      let ((r_a, m_a, c_a, a_a, d_a) as aggr_i) =
        run Passes.Pipeline.O_aggressive Vm.Engine.Interp
      in
      run Passes.Pipeline.O_none Vm.Engine.Compiled = none_i
      && run Passes.Pipeline.O_aggressive Vm.Engine.Compiled = aggr_i
      && r_n = r_a && m_n = m_a
      && (d_n > 0) = (d_a > 0)
      && c_a <= c_n
      && a_n + d_n = c_n
      && a_a + d_a = c_a)

(* ---------- e1000e driver: certification + mutation sweep ---------- *)

let compiled_driver_at ~opt () =
  let m = Nic.Driver_gen.generate ~module_scale:6 ~with_rogue:false () in
  ignore (Passes.Pipeline.compile ~opt m);
  m

let compiled_driver ~optimize () =
  compiled_driver_at
    ~opt:(if optimize then Passes.Pipeline.O_basic else Passes.Pipeline.O_none)
    ()

let test_driver_certifies () =
  checkb "default pipeline" true
    (Analysis.Certify.validate (compiled_driver ~optimize:false ()) = Ok ());
  checkb "optimized pipeline" true
    (Analysis.Certify.validate (compiled_driver ~optimize:true ()) = Ok ())

let test_driver_aggressive_certifies () =
  (* the certified optimizer must actually fire (not roll back), shrink
     the static guard census, and leave a module that re-validates *)
  let m = Nic.Driver_gen.generate ~module_scale:6 ~with_rogue:false () in
  let remarks = Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive m in
  let opt_remarks =
    match List.assoc_opt "guard-optimize" remarks with
    | Some (r : Passes.Pass.result) -> r.Passes.Pass.remarks
    | None -> Alcotest.fail "guard-optimize pass did not run"
  in
  checkb "optimizer was not rolled back" true
    (List.assoc_opt "restored" opt_remarks = None);
  checkb "optimizer changed something" true
    (List.exists (fun (_, v) -> v <> "0") opt_remarks);
  let basic = Passes.Guard_injection.count_guards (compiled_driver ~optimize:true ()) in
  checkb "fewer static guards than basic" true
    (Passes.Guard_injection.count_guards m < basic);
  checkb "re-validates" true (Analysis.Certify.validate m = Ok ());
  checkb "stamped aggressive" true
    (meta_find m Passes.Guard_injection.meta_opt_level = Some "aggressive")

let delete_nth_guard m n =
  (* remove the n-th carat_guard call (module order); true if deleted *)
  let k = ref 0 in
  let deleted = ref false in
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          blk.body <-
            List.filter
              (function
                | Call { callee; _ } when callee = guard_sym ->
                  let mine = !k = n in
                  incr k;
                  if mine then deleted := true;
                  not mine
                | _ -> true)
              blk.body)
        f.blocks)
    m.funcs;
  !deleted

let test_driver_mutation_sweep () =
  (* acceptance: deleting ANY single guard from the compiled e1000e
     driver must flip the certifier to reject *)
  let total =
    Passes.Guard_injection.count_guards (compiled_driver ~optimize:true ())
  in
  checkb "driver has guards" true (total > 0);
  let survivors = ref [] in
  for n = 0 to total - 1 do
    let m = compiled_driver ~optimize:true () in
    checkb "mutant deleted a guard" true (delete_nth_guard m n);
    if Result.is_ok (Analysis.Certify.certify m) then
      survivors := n :: !survivors
  done;
  Alcotest.(check (list int)) "every mutant caught" [] !survivors

let test_driver_mutation_sweep_aggressive () =
  (* the same sweep over the certified optimizer's output: after
     elimination, widening, and coalescing every surviving guard is
     load-bearing, so deleting any single one must still flip the
     certifier to reject *)
  let total =
    Passes.Guard_injection.count_guards
      (compiled_driver_at ~opt:Passes.Pipeline.O_aggressive ())
  in
  checkb "optimized driver has guards" true (total > 0);
  let survivors = ref [] in
  for n = 0 to total - 1 do
    let m = compiled_driver_at ~opt:Passes.Pipeline.O_aggressive () in
    checkb "mutant deleted a guard" true (delete_nth_guard m n);
    if Result.is_ok (Analysis.Certify.certify m) then
      survivors := n :: !survivors
  done;
  Alcotest.(check (list int)) "every optimized mutant caught" [] !survivors

(* ---------- certificate validation ---------- *)

let test_validate_errors () =
  let m = compiled_driver ~optimize:false () in
  checkb "fresh cert ok" true (Analysis.Certify.validate m = Ok ());
  (* missing *)
  let m1 = compiled_driver ~optimize:false () in
  m1.meta <-
    List.filter (fun (k, _) -> k <> Passes.Attest.meta_cert) m1.meta;
  checkb "missing" true
    (Analysis.Certify.validate m1 = Error Analysis.Certify.Cert_missing);
  (* stale: body changed after certification *)
  let m2 = compiled_driver ~optimize:false () in
  (match m2.funcs with
  | f :: _ ->
    f.blocks <-
      f.blocks @ [ { b_label = "tamper"; body = []; term = Ret None } ]
  | [] -> ());
  (match Analysis.Certify.validate m2 with
  | Error (Analysis.Certify.Cert_stale _) -> ()
  | _ -> Alcotest.fail "tampered body not flagged stale");
  (* invalid: garbage certificate *)
  let m3 = compiled_driver ~optimize:false () in
  meta_set m3 Passes.Attest.meta_cert "not a certificate";
  (match Analysis.Certify.validate m3 with
  | Error (Analysis.Certify.Cert_invalid _) -> ()
  | _ -> Alcotest.fail "garbage cert not flagged invalid");
  (* mismatch: digest field intact, but the census was doctored *)
  let m4 = compiled_driver ~optimize:false () in
  let cert = Option.get (meta_find m4 Passes.Attest.meta_cert) in
  meta_set m4 Passes.Attest.meta_cert (cert ^ ";forged=1");
  match Analysis.Certify.validate m4 with
  | Error Analysis.Certify.Cert_mismatch -> ()
  | _ -> Alcotest.fail "forged census not flagged"


(* ---------- per-domain certificates ---------- *)

(* A certificate can be bound to the policy domain the module will run
   under. Undomained certificates keep the old wire format and still
   validate; a verifier that pins --domain rejects both undomained and
   wrong-domain certificates. *)
let test_certify_domain_binding () =
  (* undomained: backward compatible, but fails a pinned verifier *)
  let m = compiled_driver ~optimize:false () in
  checkb "undomained still validates" true
    (Analysis.Certify.validate m = Ok ());
  (match Analysis.Certify.validate ~expect_domain:"e1000e" m with
  | Error (Analysis.Certify.Cert_wrong_domain { expected; found }) ->
    Alcotest.(check string) "expected" "e1000e" expected;
    checkb "found none" true (found = None)
  | _ -> Alcotest.fail "undomained cert passed a pinned verifier");
  (* domain-bound: stamp the module, re-issue, validate both ways *)
  let m2 = compiled_driver ~optimize:false () in
  Analysis.Certify.set_domain m2 "e1000e";
  (match Analysis.Certify.certificate m2 with
  | Error e -> Alcotest.failf "re-certify: %s" e
  | Ok cert ->
    meta_set m2 Passes.Attest.meta_cert cert;
    checkb "cert names the domain" true
      (Analysis.Certify.stored_domain cert = Some "e1000e"));
  checkb "domained validates" true (Analysis.Certify.validate m2 = Ok ());
  checkb "pinned verifier accepts the right domain" true
    (Analysis.Certify.validate ~expect_domain:"e1000e" m2 = Ok ());
  (match Analysis.Certify.validate ~expect_domain:"ixgbe" m2 with
  | Error (Analysis.Certify.Cert_wrong_domain { expected; found }) ->
    Alcotest.(check string) "expected" "ixgbe" expected;
    checkb "found the bound domain" true (found = Some "e1000e")
  | _ -> Alcotest.fail "wrong-domain cert accepted");
  ()

let test_certify_domain_forgery () =
  let m = compiled_driver ~optimize:false () in
  Analysis.Certify.set_domain m "e1000e";
  (match Analysis.Certify.certificate m with
  | Error e -> Alcotest.failf "certify: %s" e
  | Ok cert ->
    meta_set m Passes.Attest.meta_cert cert;
    (* splice the domain token by hand: domain=e1000e -> domain=ixgbe *)
    let buf = Buffer.create (String.length cert) in
    let src = "domain=e1000e" and dst = "domain=ixgbe" in
    let n = String.length cert and sn = String.length src in
    let i = ref 0 in
    while !i < n do
      if !i + sn <= n && String.sub cert !i sn = src then begin
        Buffer.add_string buf dst;
        i := !i + sn
      end
      else begin
        Buffer.add_char buf cert.[!i];
        incr i
      end
    done;
    meta_set m Passes.Attest.meta_cert (Buffer.contents buf));
  match Analysis.Certify.validate ~expect_domain:"e1000e" m with
  | Error (Analysis.Certify.Cert_wrong_domain { found; _ }) ->
    checkb "forged token surfaced" true (found = Some "ixgbe")
  | Error _ -> () (* any rejection is acceptable *)
  | Ok () -> Alcotest.fail "forged domain token accepted by pinned verifier"

(* ---------- summary fixpoint: differential against round-robin ---------- *)

module GC = Analysis.Guard_cover
module Sm = Analysis.Summaries

(* The round-robin summary fixpoint the callee-first worklist replaced,
   kept verbatim as the reference: every function re-solved every
   round until a round changes nothing, capped at [n + 2] rounds. *)
module Round_robin = struct
  let rec exportable = function
    | GC.S_imm _ | GC.S_sym _ | GC.S_param _ -> true
    | GC.S_gep (b, i, _) -> exportable b && exportable i
    | GC.S_undef _ | GC.S_def _ | GC.S_merge _ -> false

  let ret_facts ~ctx (f : func) : (GC.sv * int * int * int) list =
    let cfg = Kir.Cfg.of_func f in
    let bodies = Array.map (fun b -> Array.of_list b.body) cfg.Kir.Cfg.blocks in
    let n = Kir.Cfg.n_blocks cfg in
    let iid_base = Array.make (max n 1) 0 in
    let total = ref 0 in
    Array.iteri
      (fun i body ->
        iid_base.(i) <- !total;
        total := !total + Array.length body)
      bodies;
    let block_transfer ~block t =
      snd
        (Array.fold_left
           (fun (iid, t) ins -> (iid + 1, GC.transfer_instr ctx ~iid t ins))
           (iid_base.(block), t)
           bodies.(block))
    in
    let domain =
      {
        Analysis.Dataflow.entry = GC.entry_of_params f.params;
        equal = GC.equal;
        join = GC.join;
        transfer = block_transfer;
      }
    in
    match Analysis.Dataflow.solve domain cfg with
    | exception Analysis.Dataflow.Diverged _ -> []
    | sol ->
      let rets = ref [] in
      Array.iteri
        (fun i out ->
          match ((Kir.Cfg.block cfg i).term, out) with
          | Ret _, Some t -> rets := t :: !rets
          | _ -> ())
        sol.Analysis.Dataflow.block_out;
      (match !rets with
      | [] -> []
      | t0 :: rest ->
        let facts =
          List.fold_left
            (fun acc (t : GC.t) -> GC.inter_facts acc t.GC.facts)
            t0.GC.facts rest
        in
        GC.SvMap.fold
          (fun core fs acc ->
            if exportable core then
              List.fold_left
                (fun acc (f : GC.fact) ->
                  (core, f.GC.lo, f.GC.hi, f.GC.flags) :: acc)
                acc fs
            else acc)
          facts []
        |> List.sort compare)

  let compute ?(guard_symbol = Passes.Guard_injection.guard_symbol_default)
      ?(neutral = Sm.default_neutral) (m : modul) :
      (string, Sm.fsum) Hashtbl.t =
    let pure = Sm.compute_purity ~guard_symbol ~neutral m in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun f ->
        Hashtbl.replace tbl f.f_name
          {
            Sm.sm_pure = (try Hashtbl.find pure f.f_name with Not_found -> false);
            sm_guarantees = [];
            sm_params = List.map fst f.params;
          })
      m.funcs;
    let effect_of callee =
      match Hashtbl.find_opt tbl callee with
      | None -> GC.opaque_effect
      | Some s ->
        {
          GC.ce_kills = not s.Sm.sm_pure;
          ce_adds = s.Sm.sm_guarantees;
          ce_params = s.Sm.sm_params;
        }
    in
    let ctx = { GC.guard_symbol; neutral; call_effect = effect_of } in
    let rounds = ref (List.length m.funcs + 2) in
    let changed = ref true in
    while !changed && !rounds > 0 do
      changed := false;
      decr rounds;
      List.iter
        (fun f ->
          let s = Hashtbl.find tbl f.f_name in
          let g = ret_facts ~ctx f in
          if g <> s.Sm.sm_guarantees then begin
            Hashtbl.replace tbl f.f_name { s with Sm.sm_guarantees = g };
            changed := true
          end)
        m.funcs
    done;
    tbl
end

(* Random modules with a random in-module call graph: self-recursion,
   mutual recursion and calls to functions defined later, with guards,
   loads and stores on parameters in callers and callees, opaque
   extern calls, and branches whose arms guard different bytes. *)
let gen_call_module =
  QCheck.Gen.(
    let* k = int_range 1 5 in
    let gen_op =
      (* 0 load, 1 store, 2 guard, 3 call f<j>, 4 extern call, 5 branch *)
      let* kind =
        frequencyl [ (3, 0); (2, 1); (3, 2); (4, 3); (1, 4); (2, 5) ]
      in
      let* a = int_bound 3 and* j = int_bound (k - 1) and* c = int_bound 3 in
      return (kind, a, j, c)
    in
    let* bodies = list_repeat k (list_size (int_range 0 6) gen_op) in
    let* inject = frequency [ (3, return true); (1, return false) ] in
    let param a = Reg (if a land 1 = 0 then "%p" else "%q") in
    let b = Kir.Builder.create "calls" in
    ignore (Kir.Builder.declare_extern b "ext" ~arity:0);
    ignore (Kir.Builder.declare_extern b guard_sym ~arity:3);
    List.iteri
      (fun i ops ->
        ignore
          (Kir.Builder.start_func b (Printf.sprintf "f%d" i)
             ~params:[ ("%p", I64); ("%q", I64) ]
             ~ret:None);
        let addr a off =
          if off = 0 then param a
          else Kir.Builder.gep b (param a) (Imm (8 * off)) ~scale:1
        in
        let rec emit_op (kind, a, j, c) =
          match kind with
          | 0 -> ignore (Kir.Builder.load b I64 (addr a (c land 1)))
          | 1 -> Kir.Builder.store b I32 (Imm 7) (addr a (c land 1))
          | 2 ->
            Kir.Builder.emit b
              (Call
                 {
                   dst = None;
                   callee = guard_sym;
                   args = [ addr a (c land 1); Imm (4 lsl (c lsr 1)); Imm 3 ];
                 })
          | 3 ->
            Kir.Builder.call_unit b (Printf.sprintf "f%d" j)
              [ param (a + c); param a ]
          | 4 -> Kir.Builder.call_unit b "ext" []
          | _ ->
            Kir.Builder.if_then_else b (param a)
              ~then_:(fun () -> emit_op (2, a, j, c))
              ~else_:(fun () -> emit_op (2, a, j, c lxor 2))
        in
        List.iter emit_op ops;
        Kir.Builder.ret b None)
      bodies;
    let m = Kir.Builder.modul b in
    if inject then
      ignore
        (Passes.Guard_injection.run Passes.Guard_injection.default_config m);
    meta_set m Passes.Guard_injection.meta_opt_level "aggressive";
    return m)

let print_module m = Kir.Printer.to_string m

let prop_summaries_match_round_robin =
  QCheck.Test.make ~name:"worklist summaries equal the round-robin fixpoint"
    ~count:200
    (QCheck.make ~print:print_module gen_call_module)
    (fun m ->
      let reference = Round_robin.compute m in
      let s = Sm.compute m in
      List.for_all
        (fun f ->
          let r = Hashtbl.find reference f.f_name in
          Sm.is_pure s f.f_name = r.Sm.sm_pure
          && Sm.guarantees s f.f_name = r.Sm.sm_guarantees)
        m.funcs)

let prop_shared_solutions_match_fresh =
  QCheck.Test.make
    ~name:"certifier census from shared solutions equals fresh solves"
    ~count:200
    (QCheck.make ~print:print_module gen_call_module)
    (fun m ->
      let shared =
        match Analysis.Certify.analyze m with
        | s -> Ok s.Analysis.Certify.s_funcs
        | exception Analysis.Dataflow.Diverged why -> Error why
      in
      let fresh =
        let s = Sm.compute m in
        let ctx = Sm.ctx s in
        match
          List.map
            (fun f ->
              Analysis.Certify.analyze_func ~ctx ~exempt_stack:false
                ~guard_reads:true ~guard_writes:true (Sm.solve_func ~ctx f))
            m.funcs
        with
        | fs -> Ok fs
        | exception Analysis.Dataflow.Diverged why -> Error why
      in
      shared = fresh)

let cert_of m = Option.get (meta_find m Passes.Attest.meta_cert)

(* the optimizer carries solutions across its analyses and hands its
   final proof to the certify pass; that proof must be the one a
   from-scratch certification derives *)
let prop_optimizer_proof_matches_fresh =
  QCheck.Test.make
    ~name:"optimizer's carried-over proof equals a from-scratch proof"
    ~count:200
    (QCheck.make ~print:print_module gen_call_module)
    (fun m ->
      meta_find m Passes.Guard_injection.meta_guarded <> Some "true"
      ||
      (ignore (Analysis.Optimize.run m);
       let handed =
         match Analysis.Certify.run m with
         | _ -> Ok (cert_of m)
         | exception Passes.Pass.Pass_failed (_, reason) -> Error reason
       in
       handed = Analysis.Certify.certificate m))

(* ---------- one proof per compile: the certify pass's hand-off ---------- *)


(* keep the digest, doctor the census: every per-function field (the
   only ones with commas) claims a different count *)
let forge_census cert =
  String.split_on_char ';' cert
  |> List.map (fun field ->
         match String.index_opt field '=' with
         | Some i when String.contains field ',' ->
           String.sub field 0 (i + 1) ^ "9,9,9,9"
         | _ -> field)
  |> String.concat ";"

let fresh_driver () =
  Nic.Driver_gen.generate ~module_scale:6 ~with_rogue:false ()

let test_handoff_planted_cert () =
  (* a certificate that arrives with the input module is never trusted,
     even when its digest names the final body *)
  let check_route name ~build ~finish =
    let reference = build () in
    finish reference;
    let genuine = cert_of reference in
    let forged = forge_census genuine in
    checkb (name ^ ": forgery differs") true (forged <> genuine);
    let m = build () in
    meta_set m Passes.Attest.meta_cert forged;
    finish m;
    Alcotest.(check string) (name ^ ": fresh certificate") genuine (cert_of m);
    checkb (name ^ ": validates") true (Analysis.Certify.validate m = Ok ())
  in
  check_route "compile O_none" ~build:fresh_driver ~finish:(fun m ->
      ignore (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_none m));
  check_route "reoptimize O_basic"
    ~build:(fun () ->
      let m = fresh_driver () in
      ignore (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_none m);
      m)
    ~finish:(fun m ->
      ignore (Passes.Pipeline.reoptimize ~opt:Passes.Pipeline.O_basic m))

let test_handoff_extensions_recertify () =
  (* passes between the optimizer and the certify pass change the
     module; the certificate must be the from-scratch one either way *)
  List.iter
    (fun (name, guard_cfi, guard_intrinsics, strict) ->
      let m = Nic.Driver_gen.generate ~module_scale:6 ~with_rogue:false () in
      ignore
        (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive ~guard_cfi
           ~guard_intrinsics ~strict m);
      match Analysis.Certify.certificate m with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok cert -> Alcotest.(check string) name cert (cert_of m))
    [
      ("no extension", false, false, false);
      ("guard-cfi", true, false, false);
      ("guard-intrinsics", false, true, false);
      ("strict + guard-cfi", true, false, true);
    ]

let test_handoff_validate_after_compile () =
  let m = compiled_driver_at ~opt:Passes.Pipeline.O_aggressive () in
  checkb "validates" true (Analysis.Certify.validate m = Ok ());
  meta_set m Passes.Attest.meta_cert (forge_census (cert_of m));
  checkb "doctored census caught" true
    (Analysis.Certify.validate m = Error Analysis.Certify.Cert_mismatch)

let test_handoff_one_shot () =
  let m = compiled_driver_at ~opt:Passes.Pipeline.O_aggressive () in
  let n = List.length m.funcs in
  let solves f =
    let s0 = Sm.solve_count () in
    let r = f () in
    (Sm.solve_count () - s0, r)
  in
  let pass () = Analysis.Certify.run m in
  let offer () = ignore (Analysis.Optimize.run m) in
  (* the optimizer's proof is reused once, and only by the pass *)
  offer ();
  let k, _ = solves (fun () -> Analysis.Certify.certificate m) in
  checkb "certify proves from scratch" true (k >= n);
  let k, r = solves (fun () -> Analysis.Certify.validate m) in
  checkb "validate proves from scratch" true (k >= n && r = Ok ());
  let k, _ = solves pass in
  checki "pass reuses the offer" 0 k;
  checkb "reused certificate is the fresh one" true
    (Analysis.Certify.certificate m = Ok (cert_of m));
  let k, _ = solves pass in
  checkb "slot is one-shot" true (k >= n);
  (* an analysis input changed after the offer *)
  offer ();
  meta_set m Passes.Guard_injection.meta_guard_reads "false";
  let k, _ = solves pass in
  checkb "meta change recomputes" true (k >= n);
  checkb "recomputed certificate" true
    (Analysis.Certify.certificate m = Ok (cert_of m));
  meta_set m Passes.Guard_injection.meta_guard_reads "true";
  (* the body changed after the offer: a deleted guard is refused *)
  offer ();
  checkb "guard deleted" true (delete_nth_guard m 0);
  match pass () with
  | _ -> Alcotest.fail "unguarded module certified from a stale offer"
  | exception Passes.Pass.Pass_failed ("certify", _) -> ()

(* ---------- compile-output golden ---------- *)

(* Hash of the with-meta printed module (certificate and signature
   included) and the pass remarks. The recorded hashes pin compile
   output byte for byte: optimizer and certifier changes that claim to
   leave proofs alone must keep them. *)
let compile_hash ~opt m =
  let remarks = Passes.Pipeline.compile ~opt m in
  let b = Buffer.create 65536 in
  Buffer.add_string b (Kir.Printer.to_string ~with_meta:true m);
  List.iter
    (fun (name, (r : Passes.Pass.result)) ->
      Printf.bprintf b "%s changed=%b\n" name r.Passes.Pass.changed;
      List.iter (fun (k, v) -> Printf.bprintf b "  %s=%s\n" k v) r.remarks)
    remarks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_compiles =
  let e1000e opt = (opt, fun () -> Nic.Driver_gen.generate ()) in
  let shape scale txq rxq rogue =
    ( Passes.Pipeline.O_aggressive,
      fun () ->
        Nic.Driver_gen.generate ~module_scale:scale ~with_rogue:rogue
          ~tx_queues:txq ~rx_queues:rxq () )
  in
  [
    ( "e1000e none",
      e1000e Passes.Pipeline.O_none,
      "508c522950ce27fc12dcca629e972340" );
    ( "e1000e basic",
      e1000e Passes.Pipeline.O_basic,
      "7a03e9cdadfff729bb7af6bc257fc184" );
    ( "e1000e aggressive",
      e1000e Passes.Pipeline.O_aggressive,
      "a0b34247fa0727055f84ec21167603cc" );
    ("shape 8/1/0", shape 8 1 0 false, "ea6bb7fb37a7b1ec02ef3296988970d1");
    ("shape 8/8/4 rogue", shape 8 8 4 true, "51d8c44ad379f4e03ad64e546a91106a");
    ("shape 10/1/2", shape 10 1 2 false, "db723230b5b21f31886a4d352724cd94");
    ( "shape 10/8/1 rogue",
      shape 10 8 1 true,
      "4772d3c0427f5c95c06e3c337b87945a" );
    ("shape 12/1/4", shape 12 1 4 false, "4692bd87bbc6fbeef87698e79b587454");
    ("shape 12/8/0", shape 12 8 0 false, "bf04bbbb277ddee511fb569bd0a83958");
    ( "shape 14/1/1 rogue",
      shape 14 1 1 true,
      "14e060b1013a49d2583329a856f6c917" );
    ("shape 14/8/2", shape 14 8 2 false, "becfa8477c195d39775cf7dea7cb7309");
  ]

let test_compile_golden () =
  List.iter
    (fun (name, (opt, gen), expected) ->
      Alcotest.(check string) name expected (compile_hash ~opt (gen ())))
    golden_compiles

(* ---------- kir lints ---------- *)

let codes fs = List.map (fun f -> f.Analysis.Kir_lint.code) fs

let test_lint_unguarded_and_unreachable () =
  let m = straightline_module () in
  let f = List.hd m.funcs in
  f.blocks <-
    f.blocks @ [ { b_label = "island"; body = []; term = Ret None } ];
  let fs = Analysis.Kir_lint.lint m in
  checkb "unguarded errors" true
    (List.mem "L-unguarded" (codes (Analysis.Kir_lint.errors fs)));
  checkb "unreachable warned" true
    (List.mem "L-unreachable" (codes (Analysis.Kir_lint.warnings fs)))

let test_lint_clean_module () =
  let m = inject (straightline_module ()) in
  checki "no errors on injected module" 0
    (List.length (Analysis.Kir_lint.errors (Analysis.Kir_lint.lint m)))

let test_lint_duplicate_guard () =
  (* duplicate back-to-back guard on the same address: second one is
     shadowed and unused *)
  let m = manual_module ~guard_flags:3 ~access:`Load () in
  let f = List.hd m.funcs in
  (match f.blocks with
  | blk :: _ ->
    blk.body <-
      (match blk.body with
      | (Call _ as g) :: rest -> g :: g :: rest
      | _ -> assert false)
  | [] -> assert false);
  let fs = Analysis.Kir_lint.lint m in
  checkb "shadowed guard flagged" true (List.mem "L-shadowed-guard" (codes fs))

let test_lint_unused_guard () =
  let b = Kir.Builder.create "unused" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call
       { dst = None; callee = guard_sym;
         args = [ Reg "%p"; Imm 8; Imm 3 ] });
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  let fs = Analysis.Kir_lint.lint m in
  checkb "unused guard flagged" true (List.mem "L-unused-guard" (codes fs))

(* two guards over adjacent byte ranges of the same base, each backing
   a real access; [offset] controls adjacency *)
let adjacent_guard_module ~offset () =
  let b = Kir.Builder.create "co" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%p", I64) ] ~ret:None);
  Kir.Builder.emit b
    (Call
       { dst = None; callee = guard_sym; args = [ Reg "%p"; Imm 8; Imm 3 ] });
  let q = Kir.Builder.gep b (Reg "%p") (Imm offset) ~scale:1 in
  Kir.Builder.emit b
    (Call { dst = None; callee = guard_sym; args = [ q; Imm 8; Imm 3 ] });
  ignore (Kir.Builder.load b I64 (Reg "%p"));
  ignore (Kir.Builder.load b I64 q);
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  m.externs <- m.externs @ [ (guard_sym, 3) ];
  m

let test_lint_coalescable_guard () =
  let m = adjacent_guard_module ~offset:8 () in
  let fs = Analysis.Kir_lint.lint m in
  checkb "adjacent guards flagged" true
    (List.mem "W-coalescable-guard" (codes fs));
  (* warning, not error: the module is still certifiable as-is *)
  checki "no errors" 0 (List.length (Analysis.Kir_lint.errors fs));
  (* running the coalescer discharges the warning without losing
     coverage *)
  let r = Passes.Guard_coalesce.run ~guard_symbol:guard_sym m in
  checkb "coalesce fired" true r.Passes.Pass.changed;
  let fs' = Analysis.Kir_lint.lint m in
  checkb "warning discharged" false
    (List.mem "W-coalescable-guard" (codes fs'));
  checkb "still certifies" true (Result.is_ok (Analysis.Certify.certify m))

let test_lint_coalescable_needs_adjacency () =
  (* a gap between the guarded ranges: merging would license bytes no
     guard ever checked, so the lint must stay quiet *)
  let m = adjacent_guard_module ~offset:32 () in
  checkb "gapped guards not flagged" false
    (List.mem "W-coalescable-guard" (codes (Analysis.Kir_lint.lint m)))

let test_lint_callind_nocfi () =
  let b = Kir.Builder.create "ind" in
  ignore (Kir.Builder.start_func b "f" ~params:[ ("%fp", I64) ] ~ret:None);
  Kir.Builder.emit b (Callind { dst = None; fn = Reg "%fp"; args = [] });
  Kir.Builder.ret b None;
  let m = Kir.Builder.modul b in
  let fs = Analysis.Kir_lint.lint m in
  checkb "nocfi flagged" true (List.mem "L-callind-nocfi" (codes fs))

(* ---------- suite ---------- *)

let () =
  Alcotest.run "analysis"
    [
      ( "dataflow",
        [
          Alcotest.test_case "loop converges" `Quick test_dataflow_block_counting;
          Alcotest.test_case "unreachable bottom" `Quick
            test_dataflow_unreachable_stays_bottom;
        ] );
      ( "domain-certs",
        [
          Alcotest.test_case "domain binding" `Quick
            test_certify_domain_binding;
          Alcotest.test_case "domain forgery rejected" `Quick
            test_certify_domain_forgery;
        ] );
      ( "certify",
        [
          Alcotest.test_case "rejects raw" `Quick test_certify_rejects_raw;
          Alcotest.test_case "accepts injected" `Quick
            test_certify_after_injection;
          Alcotest.test_case "accepts optimized" `Quick
            test_certify_after_optimization;
          Alcotest.test_case "hoisted loop" `Quick test_certify_hoisted_loop;
          Alcotest.test_case "coverage subsumption" `Quick
            test_certify_coverage_subsumption;
          Alcotest.test_case "opaque call kills" `Quick
            test_certify_kill_at_opaque_call;
          QCheck_alcotest.to_alcotest prop_certify_differential;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "aggressive certifies" `Quick
            test_driver_aggressive_certifies;
          QCheck_alcotest.to_alcotest prop_optimizer_differential;
        ] );
      ( "driver",
        [
          Alcotest.test_case "e1000e certifies" `Quick test_driver_certifies;
          Alcotest.test_case "mutation sweep" `Slow test_driver_mutation_sweep;
          Alcotest.test_case "mutation sweep (aggressive)" `Slow
            test_driver_mutation_sweep_aggressive;
          Alcotest.test_case "validate errors" `Quick test_validate_errors;
        ] );
      ( "summaries",
        [
          QCheck_alcotest.to_alcotest prop_summaries_match_round_robin;
          QCheck_alcotest.to_alcotest prop_shared_solutions_match_fresh;
          QCheck_alcotest.to_alcotest prop_optimizer_proof_matches_fresh;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "planted certificate ignored" `Quick
            test_handoff_planted_cert;
          Alcotest.test_case "extensions re-certify" `Quick
            test_handoff_extensions_recertify;
          Alcotest.test_case "validate after compile" `Quick
            test_handoff_validate_after_compile;
          Alcotest.test_case "one-shot, pass only" `Quick test_handoff_one_shot;
        ] );
      ( "golden",
        [ Alcotest.test_case "compile output" `Quick test_compile_golden ] );
      ( "lint",
        [
          Alcotest.test_case "unguarded+unreachable" `Quick
            test_lint_unguarded_and_unreachable;
          Alcotest.test_case "clean after injection" `Quick
            test_lint_clean_module;
          Alcotest.test_case "duplicate guard" `Quick test_lint_duplicate_guard;
          Alcotest.test_case "unused guard" `Quick test_lint_unused_guard;
          Alcotest.test_case "coalescable guard" `Quick
            test_lint_coalescable_guard;
          Alcotest.test_case "coalescable needs adjacency" `Quick
            test_lint_coalescable_needs_adjacency;
          Alcotest.test_case "callind nocfi" `Quick test_lint_callind_nocfi;
        ] );
    ]
