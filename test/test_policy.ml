(* Policy engine: regions, the linear table, alternative structures
   (equivalence-tested against the linear reference), the engine, and the
   policy module with its ioctl interface. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fresh () = Kernel.create ~require_signature:false Machine.Presets.r350

let region ?(tag = "") ?(prot = Policy.Region.prot_rw) base len =
  Policy.Region.v ~tag ~base ~len ~prot ()

(* ---------- regions ---------- *)

let test_region_contains () =
  let r = region 100 50 in
  checkb "inside" true (Policy.Region.contains r ~addr:100 ~size:50);
  checkb "strict inside" true (Policy.Region.contains r ~addr:120 ~size:8);
  checkb "below" false (Policy.Region.contains r ~addr:99 ~size:2);
  checkb "spills over" false (Policy.Region.contains r ~addr:145 ~size:8);
  checkb "just past" false (Policy.Region.contains r ~addr:150 ~size:1)

let test_region_permits () =
  let ro = region ~prot:Policy.Region.prot_read 0 10 in
  checkb "read ok" true (Policy.Region.permits ro ~flags:Policy.Region.prot_read);
  checkb "write denied" false (Policy.Region.permits ro ~flags:Policy.Region.prot_write);
  checkb "rw denied" false (Policy.Region.permits ro ~flags:Policy.Region.prot_rw);
  let none = region ~prot:0 0 10 in
  checkb "deny-all region" false (Policy.Region.permits none ~flags:Policy.Region.prot_read)

let test_region_overlaps () =
  checkb "overlap" true (Policy.Region.overlaps (region 0 10) (region 5 10));
  checkb "nested" true (Policy.Region.overlaps (region 0 100) (region 10 5));
  checkb "adjacent" false (Policy.Region.overlaps (region 0 10) (region 10 10));
  checkb "disjoint" false (Policy.Region.overlaps (region 0 10) (region 50 10))

let test_region_validation () =
  (match region 0 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero length accepted");
  match region (-5) 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative base accepted"

let test_canonical_policies () =
  checki "two regions" 2 (List.length Policy.Region.kernel_only);
  checki "padded to 64" 64 (List.length (Policy.Region.kernel_only_padded 64));
  (* padded keeps semantics: kernel allowed, user denied *)
  let find addr rs = List.find_opt (fun r -> Policy.Region.contains r ~addr ~size:8) rs in
  let p = Policy.Region.kernel_only_padded 64 in
  (match find Kernel.Layout.direct_map_base p with
  | Some r -> checkb "kernel allowed" true (Policy.Region.permits r ~flags:3)
  | None -> Alcotest.fail "kernel unmatched");
  match find 0x100_0000_0000 p with
  | Some r -> checkb "user denied" false (Policy.Region.permits r ~flags:1)
  | None -> Alcotest.fail "user unmatched"

(* ---------- linear table ---------- *)

let test_linear_add_capacity () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:4 in
  for i = 0 to 3 do
    checkb "added" true (Policy.Linear_table.add t (region (i * 1000) 100) = Ok ())
  done;
  checkb "full" true (Result.is_error (Policy.Linear_table.add t (region 9000 1)));
  checki "count" 4 (Policy.Linear_table.count t)

let test_linear_first_match_wins () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:8 in
  ignore (Policy.Linear_table.add t (region ~tag:"first" 100 100));
  ignore (Policy.Linear_table.add t (region ~tag:"second" 100 100));
  match (Policy.Linear_table.lookup t ~addr:120 ~size:4).Policy.Structure.matched with
  | Some r -> Alcotest.(check string) "first wins" "first" r.Policy.Region.tag
  | None -> Alcotest.fail "no match"

let test_linear_remove_preserves_order () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:8 in
  ignore (Policy.Linear_table.add t (region ~tag:"a" 0 10));
  ignore (Policy.Linear_table.add t (region ~tag:"b" 100 10));
  ignore (Policy.Linear_table.add t (region ~tag:"c" 200 10));
  checkb "removed" true (Policy.Linear_table.remove t ~base:100);
  checkb "missing remove" false (Policy.Linear_table.remove t ~base:100);
  Alcotest.(check (list string)) "order kept" [ "a"; "c" ]
    (List.map (fun r -> r.Policy.Region.tag) (Policy.Linear_table.regions t))

let test_linear_scan_counts () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:64 in
  for i = 0 to 9 do
    ignore (Policy.Linear_table.add t (region (i * 1000) 100))
  done;
  checki "match at pos 7 scans 8" 8
    (Policy.Linear_table.lookup t ~addr:7000 ~size:4).Policy.Structure.scanned;
  checki "miss scans all" 10
    (Policy.Linear_table.lookup t ~addr:999_999 ~size:4).Policy.Structure.scanned

(* ---------- structure equivalence (qcheck) ---------- *)

(* random NON-overlapping region sets, which all structures accept *)
let gen_disjoint_regions =
  QCheck.Gen.(
    let* n = int_range 1 20 in
    let* lens = list_repeat n (int_range 1 50) in
    let* gaps = list_repeat n (int_range 1 50) in
    let* prots = list_repeat n (int_range 0 3) in
    let rec build base lens gaps prots acc =
      match (lens, gaps, prots) with
      | l :: ls, g :: gs, p :: ps ->
        build (base + l + g) ls gs ps (region ~prot:p base l :: acc)
      | _ -> List.rev acc
    in
    return (build 1000 lens gaps prots []))

let gen_probe = QCheck.Gen.(tup2 (int_range 0 3000) (int_range 1 8))

let mk_instance k kind regions =
  let inst = Policy.Engine.make_instance k kind ~capacity:64 in
  (match Policy.Structure.add_all inst regions with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add: %s" (Policy.Structure.add_error_to_string e));
  inst

let equivalence_prop kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s agrees with linear" (Policy.Engine.kind_to_string kind))
    ~count:100
    (QCheck.make QCheck.Gen.(tup2 gen_disjoint_regions (list_size (int_range 1 20) gen_probe)))
    (fun (regions, probes) ->
      let k = fresh () in
      let reference = mk_instance k Policy.Engine.Linear regions in
      let candidate = mk_instance k kind regions in
      List.for_all
        (fun (addr, size) ->
          let a = Policy.Structure.lookup reference ~addr ~size in
          let b = Policy.Structure.lookup candidate ~addr ~size in
          (* on disjoint regions the containing region is unique *)
          a.Policy.Structure.matched = b.Policy.Structure.matched)
        probes)

let prop_splay_equiv = equivalence_prop Policy.Engine.Splay
let prop_itree_equiv = equivalence_prop Policy.Engine.Itree

let test_splay_rejects_overlap () =
  let k = fresh () in
  let t = Policy.Splay_tree.create k ~capacity:8 in
  ignore (Policy.Splay_tree.add t (region 0 100));
  checkb "overlap rejected, naming both regions" true
    (Policy.Splay_tree.add t (region 50 100)
    = Error (Policy.Structure.Overlap (region 50 100, region 0 100)))

let test_splay_popularity () =
  let k = fresh () in
  let t = Policy.Splay_tree.create k ~capacity:32 in
  for i = 0 to 15 do
    ignore (Policy.Splay_tree.add t (region (i * 1000) 100))
  done;
  (* hit region 12 repeatedly: it splays to the root, later probes scan 1 *)
  ignore (Policy.Splay_tree.lookup t ~addr:12050 ~size:4);
  let second = Policy.Splay_tree.lookup t ~addr:12050 ~size:4 in
  checki "root hit" 1 second.Policy.Structure.scanned

(* ---------- engine ---------- *)

let test_engine_default_deny () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  (match Policy.Engine.check e ~addr:0x1234 ~size:8 ~flags:1 with
  | Policy.Engine.Denied None -> ()
  | _ -> Alcotest.fail "default deny");
  let st = Policy.Engine.stats e in
  checki "denied counted" 1 st.Policy.Engine.denied

let test_engine_default_allow () =
  let k = fresh () in
  let e = Policy.Engine.create ~default_allow:true k in
  match Policy.Engine.check e ~addr:0x1234 ~size:8 ~flags:1 with
  | Policy.Engine.Allowed None -> ()
  | _ -> Alcotest.fail "default allow"

let test_engine_permission_mismatch () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  ignore (Policy.Engine.add_region e (region ~prot:Policy.Region.prot_read 100 100));
  (match Policy.Engine.check e ~addr:150 ~size:4 ~flags:Policy.Region.prot_read with
  | Policy.Engine.Allowed (Some _) -> ()
  | _ -> Alcotest.fail "read should pass");
  match Policy.Engine.check e ~addr:150 ~size:4 ~flags:Policy.Region.prot_write with
  | Policy.Engine.Denied (Some _) -> ()
  | _ -> Alcotest.fail "write should fail"

let test_engine_set_policy () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  Policy.Engine.set_policy e Policy.Region.kernel_only;
  checki "two rules" 2 (Policy.Engine.count e);
  Policy.Engine.set_policy e (Policy.Region.kernel_only_padded 16);
  checki "replaced" 16 (Policy.Engine.count e)

let test_engine_cost_grows_with_scan_depth () =
  let k = fresh () in
  let e = Policy.Engine.create k in
  Policy.Engine.set_policy e (Policy.Region.kernel_only_padded 64);
  let machine = Kernel.machine k in
  let addr = Kernel.Layout.direct_map_base + 64 in
  (* warm *)
  for _ = 1 to 200 do
    ignore (Policy.Engine.check e ~addr ~size:8 ~flags:1)
  done;
  let c0 = Machine.Model.cycles machine in
  for _ = 1 to 500 do
    ignore (Policy.Engine.check e ~addr ~size:8 ~flags:1)
  done;
  let deep = Machine.Model.cycles machine - c0 in
  let e2 = Policy.Engine.create k in
  Policy.Engine.set_policy e2 Policy.Region.kernel_only;
  for _ = 1 to 200 do
    ignore (Policy.Engine.check e2 ~addr ~size:8 ~flags:1)
  done;
  let c1 = Machine.Model.cycles machine in
  for _ = 1 to 500 do
    ignore (Policy.Engine.check e2 ~addr ~size:8 ~flags:1)
  done;
  let shallow = Machine.Model.cycles machine - c1 in
  checkb "64-region scan costs more" true (deep > shallow)

(* ---------- policy module ---------- *)

let setup_pm ?(on_deny = Policy.Policy_module.Audit) () =
  let k = fresh () in
  let pm = Policy.Policy_module.install ~on_deny k in
  (k, pm)

let test_guard_allows () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  checki "guard returns" 0
    (Kernel.call_symbol k "carat_guard" [| Kernel.Layout.direct_map_base + 8; 8; 1 |]);
  checki "no violations" 0 (List.length (Policy.Policy_module.violations pm))

let test_guard_denies_and_logs () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  ignore (Kernel.call_symbol k "carat_guard" [| 0x4000; 8; 2 |]);
  checki "violation recorded" 1 (List.length (Policy.Policy_module.violations pm));
  checkb "logged" true
    (Kernel.Klog.contains (Kernel.log k) "CARAT KOP: forbidden write")

let test_guard_panics_in_panic_mode () =
  let k, pm = setup_pm ~on_deny:Policy.Policy_module.Panic () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  match Kernel.call_symbol k "carat_guard" [| 0x4000; 8; 1 |] with
  | exception Kernel.Panic info ->
    checkb "reason mentions guard" true
      (String.length info.Kernel.reason > 0)
  | _ -> Alcotest.fail "no panic"

let test_ioctl_roundtrip () =
  let k, pm = setup_pm () in
  let arg = Kernel.map_user k ~size:32 in
  Kernel.write k ~addr:arg ~size:8 0xA000;
  Kernel.write k ~addr:(arg + 8) ~size:8 0x100;
  Kernel.write k ~addr:(arg + 16) ~size:8 3;
  checki "add ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_add ~arg);
  checki "count" 1
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  (* the added region actually governs the guard *)
  checki "guard passes" 0 (Kernel.call_symbol k "carat_guard" [| 0xA010; 8; 1 |]);
  (* remove it again *)
  Kernel.write k ~addr:arg ~size:8 0xA000;
  checki "remove ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_remove ~arg);
  checki "count 0" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  ignore (Kernel.call_symbol k "carat_guard" [| 0xA010; 8; 1 |]);
  checki "denied after removal" 1 (List.length (Policy.Policy_module.violations pm))

let test_ioctl_bad_region () =
  let k, _ = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let arg = Kernel.map_user k ~size:32 in
  let set base len prot =
    Kernel.write k ~addr:arg ~size:8 base;
    Kernel.write k ~addr:(arg + 8) ~size:8 len;
    Kernel.write k ~addr:(arg + 16) ~size:8 prot
  in
  set 0xA000 0 Policy.Region.prot_rw (* zero length *);
  checki "zero-length add" Kernel.einval (io Policy.Policy_module.ioctl_add arg);
  (* a two's-complement negative length reads back from user memory as a
     huge positive one: the overflow check catches it as -ERANGE *)
  set 0xA000 (-8) Policy.Region.prot_rw;
  checki "negative length" Kernel.erange (io Policy.Policy_module.ioctl_add arg);
  set max_int 0x100 Policy.Region.prot_rw (* base + len overflows *);
  checki "base+len overflow" Kernel.erange
    (io Policy.Policy_module.ioctl_add arg);
  set 0xA000 0x100 0xF0 (* bits outside prot_rw *);
  checki "bad prot bits" Kernel.einval (io Policy.Policy_module.ioctl_add arg);
  checki "count unchanged" 0 (io Policy.Policy_module.ioctl_count 0)

(* Each validated ioctl answers a malformed argument with the matching
   typed error code, and an unknown command with -ENOTTY — regression
   locks for the /dev/carat argument-validation surface. *)
let test_ioctl_validation () =
  let k, pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  checki "add: bad pointer" Kernel.einval (io ioctl_add (-8));
  checki "remove: bad pointer" Kernel.einval (io ioctl_remove (-8));
  let arg = Kernel.map_user k ~size:32 in
  Kernel.write k ~addr:arg ~size:8 0xDEAD000;
  checki "remove: no such region" (-1) (io ioctl_remove arg);
  checki "set-intrinsics: negative bitmap" Kernel.einval
    (io ioctl_set_intrinsics (-1));
  checki "cfi-allow: negative target" Kernel.einval (io ioctl_cfi_allow (-8));
  checki "set-mode: unknown encoding" Kernel.einval (io ioctl_set_mode 99);
  checki "get-stats: bad pointer" Kernel.einval (io ioctl_get_stats (-8));
  checki "trace-start: bad capacity" Kernel.einval (io ioctl_trace_start (-1));
  checki "trace-start: oversized ring" Kernel.erange
    (io ioctl_trace_start (trace_capacity_max + 1));
  checki "trace-read: bad pointer" Kernel.einval (io ioctl_trace_read (-8));
  checki "audit: self-healing not enabled" Kernel.einval (io ioctl_audit 0);
  checki "selfheal: self-healing not enabled" Kernel.einval (io ioctl_selfheal 0);
  checki "unknown command" Kernel.enotty (io 999 0);
  (* a well-formed call still goes through after the rejections *)
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  checki "valid count" 2 (io ioctl_count 0)

(* The audit/selfheal ioctls once integrity is armed: the audit returns
   the number of corrupt tiers it found, and the selfheal block reflects
   the detection and the recovery. *)
let test_ioctl_audit_selfheal () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  ignore (enable_integrity pm);
  checki "clean audit" 0 (io ioctl_audit 0);
  checki "selfheal: bad pointer" Kernel.einval (io ioctl_selfheal (-8));
  let eng = Policy.Policy_module.engine pm in
  (* flip the kernel window's rw permission to deny-all in the live
     table — a stale-deny corruption the digest must still catch *)
  ignore
    (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base
       ~prot:0);
  checki "audit detects corrupt instance" 1 (io ioctl_audit 0);
  let arg = Kernel.map_user k ~size:64 in
  checki "selfheal block ok" 0 (io ioctl_selfheal arg);
  let r i = Kernel.read k ~addr:(arg + (8 * i)) ~size:8 in
  checkb "audits counted" true (r 0 >= 2);
  checki "one detection" 1 (r 1);
  checki "one degradation" 1 (r 2);
  (* the degrade republished from the authoritative copy on the spot *)
  checki "clean after heal" 0 (io ioctl_audit 0)

let test_ioctl_set_default () =
  let k, pm = setup_pm () in
  checki "set allow" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_set_default ~arg:1);
  checki "now allowed" 0 (Kernel.call_symbol k "carat_guard" [| 0x9999; 8; 1 |]);
  checki "no violations" 0 (List.length (Policy.Policy_module.violations pm))

let test_ioctl_stats () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  ignore (Kernel.call_symbol k "carat_guard" [| Kernel.Layout.direct_map_base; 8; 1 |]);
  ignore (Kernel.call_symbol k "carat_guard" [| 0x4000; 8; 1 |]);
  checki "checks" 2
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_stats_checks ~arg:0);
  checki "denied" 1
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_stats_denied ~arg:0)

let test_ioctl_clear () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 8);
  checki "clear ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_clear ~arg:0);
  checki "empty" 0 (Policy.Engine.count (Policy.Policy_module.engine pm))

(* ---------- self-healing integrity ---------- *)

let setup_shadow_pm ?(site_cache = false) () =
  let k = fresh () in
  let pm =
    Policy.Policy_module.install ~kind:Policy.Engine.Shadow ~site_cache
      ~on_deny:Policy.Policy_module.Audit k
  in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  (k, pm, Policy.Policy_module.engine pm)

(* A legitimate mutation goes through the epoch choke point, so the
   authoritative snapshot follows it and audits stay clean. *)
let test_integrity_commit_hook_tracks_mutations () =
  let _, pm, eng = setup_shadow_pm () in
  let ig = Policy.Policy_module.enable_integrity pm in
  checki "clean at rest" 0 (Policy.Integrity.audit ig);
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 8);
  checki "clean after set_policy" 0 (Policy.Integrity.audit ig);
  ignore
    (Policy.Policy_module.replace_policy pm ~default_allow:false
       Policy.Region.kernel_only);
  checki "clean after replace" 0 (Policy.Integrity.audit ig);
  checkb "all tiers healthy" true (Policy.Integrity.healthy ig);
  checki "no detections from legitimate traffic" 0
    (Policy.Integrity.detections ig);
  ignore eng

(* Without the watchdog, a corrupt shadow slot serves a stale allow: the
   attack the self-healing layer exists to stop, demonstrated first. *)
let test_stale_allow_without_integrity () =
  let _, _, eng = setup_shadow_pm () in
  Policy.Engine.set_verify eng true;
  (* warm the slot for a user page, then smash it into a writable fact
     with a forged checksum (the wild write) *)
  let addr = 0x4000 in
  let page = addr lsr Policy.Shadow_table.page_bits in
  (match Policy.Engine.check eng ~addr ~size:8 ~flags:2 with
  | Policy.Engine.Denied _ -> ()
  | Policy.Engine.Allowed _ -> Alcotest.fail "user store allowed pre-corruption");
  checkb "slot corrupted" true
    (Policy.Engine.corrupt_shadow eng ~page ~prot:Policy.Region.prot_rw
       ~fix_checksum:true);
  (match Policy.Engine.check eng ~addr ~size:8 ~flags:2 with
  | Policy.Engine.Allowed _ -> ()
  | Policy.Engine.Denied _ -> Alcotest.fail "corrupt slot did not answer");
  checkb "stale allow counted by paranoia" true
    (Policy.Engine.stale_allows eng > 0)

(* Checksum-detectable shadow corruption: quarantine drops the engine to
   the linear fallback (not one check served from the corrupt table),
   then the cooldown rebuild restores the shadow tier. *)
let test_shadow_degrade_and_repromote () =
  let _, pm, eng = setup_shadow_pm () in
  let ig = Policy.Policy_module.enable_integrity pm in
  let addr = 0x4000 in
  let page = addr lsr Policy.Shadow_table.page_bits in
  ignore (Policy.Engine.check eng ~addr ~size:8 ~flags:2);
  checkb "corrupted" true
    (Policy.Engine.corrupt_shadow eng ~page ~prot:Policy.Region.prot_rw
       ~fix_checksum:false);
  checki "full tier before" 2 (Policy.Integrity.tier_level ig);
  checki "audit detects" 1 (Policy.Integrity.audit ig);
  checki "dropped to linear fallback" 0 (Policy.Integrity.tier_level ig);
  checkb "degraded, not healthy" false (Policy.Integrity.healthy ig);
  (* enforcement continues from the fallback with no stale allow *)
  Policy.Engine.set_verify eng true;
  (match Policy.Engine.check eng ~addr ~size:8 ~flags:2 with
  | Policy.Engine.Denied _ -> ()
  | Policy.Engine.Allowed _ -> Alcotest.fail "degraded engine allowed the store");
  checki "no stale allows" 0 (Policy.Engine.stale_allows eng);
  (* cooldown (2 audits) then rebuild re-promotes the shadow tier *)
  ignore (Policy.Integrity.audit ig);
  ignore (Policy.Integrity.audit ig);
  checki "restored" 2 (Policy.Integrity.tier_level ig);
  checkb "healthy again" true (Policy.Integrity.healthy ig);
  checkb "rebuild counted" true (Policy.Integrity.rebuilds ig > 0)

(* Semantic cross-check: a corrupt slot whose checksum was forged to
   match is still caught against the authoritative classification. *)
let test_shadow_semantic_crosscheck () =
  let _, pm, eng = setup_shadow_pm () in
  let ig = Policy.Policy_module.enable_integrity pm in
  let page = 0x4000 lsr Policy.Shadow_table.page_bits in
  ignore (Policy.Engine.check eng ~addr:0x4000 ~size:8 ~flags:2);
  checkb "corrupted with forged checksum" true
    (Policy.Engine.corrupt_shadow eng ~page ~prot:Policy.Region.prot_rw
       ~fix_checksum:true);
  checki "semantic audit still detects" 1 (Policy.Integrity.audit ig)

(* Inline-cache corruption: only the top tier is quarantined (shadow
   keeps serving), and the flush-based rebuild re-promotes it. *)
let test_ic_degrade_and_repromote () =
  let _, pm, eng = setup_shadow_pm ~site_cache:true () in
  let ig = Policy.Policy_module.enable_integrity pm in
  let page = 0x4000 lsr Policy.Shadow_table.page_bits in
  checkb "slot planted" true
    (Policy.Engine.corrupt_site_cache eng
       (Policy.Engine.default_view eng)
       ~site:7 ~page ~prot:Policy.Region.prot_rw ~smash_canary:true);
  checki "audit detects" 1 (Policy.Integrity.audit ig);
  checki "caches off, shadow still serving" 1 (Policy.Integrity.tier_level ig);
  checkb "ic master switch off" false (Policy.Engine.ic_enabled eng);
  ignore (Policy.Integrity.audit ig);
  ignore (Policy.Integrity.audit ig);
  checki "caches back" 2 (Policy.Integrity.tier_level ig);
  checkb "ic switch on" true (Policy.Engine.ic_enabled eng)

(* A tier that keeps failing its rebuild re-audit is abandoned after
   max_retries (left degraded), not re-promoted forever: the route is
   pinned to a no-op so every repair "fails". *)
let test_bounded_retries_then_abandon () =
  let _, _, eng = setup_shadow_pm () in
  let ig =
    Policy.Integrity.create
      ~config:{ Policy.Integrity.cooldown_audits = 1; max_retries = 2 }
      eng
  in
  Policy.Integrity.set_route ig (fun _ _ -> 0);
  checkb "instance corrupted" true
    (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base
       ~prot:0);
  for _ = 1 to 6 do
    ignore (Policy.Integrity.audit ig)
  done;
  checki "abandoned after bounded retries" 1 (Policy.Integrity.abandoned ig);
  checkb "never flaps back" false (Policy.Integrity.healthy ig);
  let audits_before = Policy.Integrity.audits ig in
  ignore (Policy.Integrity.audit ig);
  checki "audits continue" (audits_before + 1) (Policy.Integrity.audits ig)

(* The selfheal procfs file renders live integrity state. *)
let test_selfheal_procfs () =
  let k, pm, eng = setup_shadow_pm () in
  let fs = Kernsvc.Kernfs.create k in
  let proc = Kernsvc.Procfs.install fs pm in
  checkb "placeholder before enabling" true
    (let s = Kernsvc.Procfs.read_selfheal proc in
     String.length s > 0 && String.sub s 0 5 = "carat");
  ignore (Policy.Policy_module.enable_integrity pm);
  ignore
    (Policy.Engine.corrupt_instance eng ~base:Kernel.Layout.kernel_base ~prot:0);
  ignore
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_audit ~arg:0);
  let s = Kernsvc.Procfs.read_selfheal proc in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "renders audit counters" true (contains "carat_selfheal: audits");
  checkb "renders detection" true (contains "detections 1");
  checkb "renders per-tier rows" true (contains "instance")

(* ---------- policy files ---------- *)

let test_policy_file_roundtrip () =
  let t =
    {
      Policy.Policy_file.default_allow = false;
      mode = Policy.Policy_module.Quarantine;
      domain = "";
      regions =
        [
          region ~tag:"kernel window" ~prot:Policy.Region.prot_rw 0x1000 0x2000;
          region ~tag:"" ~prot:Policy.Region.prot_read 0x9000 0x100;
          region ~prot:0 0x0 0x800;
        ];
    }
  in
  let text = Policy.Policy_file.to_string t in
  let t' = Policy.Policy_file.parse text in
  checki "regions" 3 (List.length t'.Policy.Policy_file.regions);
  checkb "same text" true (Policy.Policy_file.to_string t' = text)

let test_policy_file_parse () =
  let t =
    Policy.Policy_file.parse
      "# demo
default allow
region 0x100 0x10 rw tagged region
region 256 16 -- 
"
  in
  checkb "default" true t.Policy.Policy_file.default_allow;
  (match t.Policy.Policy_file.regions with
  | [ a; b ] ->
    checki "hex base" 0x100 a.Policy.Region.base;
    Alcotest.(check string) "tag with spaces" "tagged region" a.Policy.Region.tag;
    checki "decimal base" 256 b.Policy.Region.base;
    checki "no perms" 0 b.Policy.Region.prot
  | _ -> Alcotest.fail "wrong region count")

let test_policy_file_errors () =
  List.iter
    (fun text ->
      match Policy.Policy_file.parse text with
      | exception Policy.Policy_file.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" text)
    [
      "region 0x1 0x0 rw";      (* zero length *)
      "region 0x1 xyz rw";      (* bad number *)
      "region 0x1 0x10 qq";     (* bad perms *)
      "frobnicate";             (* unknown directive *)
    ]

let test_policy_file_apply () =
  let k = fresh () in
  let apply regions =
    let e = Policy.Engine.create k in
    let file =
      {
        Policy.Policy_file.default_allow = true;
        mode = Policy.Policy_module.Panic;
        domain = "";
        regions;
      }
    in
    (e, Policy.Policy_file.apply file e)
  in
  (let e, r = apply [ region ~prot:0 0x5000 0x1000 ] in
   checkb "applied" true (r = Ok ());
   (match Policy.Engine.check e ~addr:0x5100 ~size:8 ~flags:1 with
   | Policy.Engine.Denied (Some _) -> ()
   | _ -> Alcotest.fail "explicit deny rule ignored");
   match Policy.Engine.check e ~addr:0x9000 ~size:8 ~flags:1 with
   | Policy.Engine.Allowed None -> ()
   | _ -> Alcotest.fail "default allow ignored");
  (* more regions than the 64-entry table holds: a typed refusal, not an
     exception *)
  let _, r = apply (Policy.Region.padding 70) in
  checkb "over capacity refused" true (r = Error (Policy.Structure.Full 64))


(* ---------- interval tree ---------- *)

(* Unlike the overlap-rejecting trees, the interval tier accepts
   overlapping and duplicate-base regions — a multi-tenant domain policy
   is allowed to layer rules — and still answers first-match-wins by
   insertion order. *)
let test_itree_overlaps_and_duplicates () =
  let k = fresh () in
  let t = Policy.Interval_tree.create k ~capacity:16 in
  checkb "first" true (Policy.Interval_tree.add t (region ~tag:"first" ~prot:Policy.Region.prot_read 100 100) = Ok ());
  checkb "overlap accepted" true (Policy.Interval_tree.add t (region ~tag:"wide" 50 400) = Ok ());
  checkb "dup base accepted" true (Policy.Interval_tree.add t (region ~tag:"dup" 100 100) = Ok ());
  checkb "valid" true (Policy.Interval_tree.validate t = Ok ());
  (* first match (insertion order) wins on the overlap *)
  (match (Policy.Interval_tree.lookup t ~addr:120 ~size:4).Policy.Structure.matched with
  | Some r -> Alcotest.(check string) "first wins" "first" r.Policy.Region.tag
  | None -> Alcotest.fail "no match");
  (* insertion order is preserved by regions *)
  Alcotest.(check (list string)) "insertion order" [ "first"; "wide"; "dup" ]
    (List.map (fun r -> r.Policy.Region.tag) (Policy.Interval_tree.regions t))

let test_itree_remove_first_occurrence () =
  let k = fresh () in
  let t = Policy.Interval_tree.create k ~capacity:16 in
  ignore (Policy.Interval_tree.add t (region ~tag:"first" ~prot:Policy.Region.prot_read 100 100));
  ignore (Policy.Interval_tree.add t (region ~tag:"second" 100 100));
  checkb "removed" true (Policy.Interval_tree.remove t ~base:100);
  checki "one left" 1 (Policy.Interval_tree.count t);
  (match (Policy.Interval_tree.lookup t ~addr:120 ~size:4).Policy.Structure.matched with
  | Some r -> Alcotest.(check string) "second now wins" "second" r.Policy.Region.tag
  | None -> Alcotest.fail "no match");
  checkb "removed again" true (Policy.Interval_tree.remove t ~base:100);
  checkb "empty" true (Policy.Interval_tree.remove t ~base:100 = false);
  checkb "still valid" true (Policy.Interval_tree.validate t = Ok ())

let prop_itree_invariants =
  QCheck.Test.make ~name:"interval tree invariants" ~count:100
    (QCheck.make gen_disjoint_regions) (fun regions ->
      let k = fresh () in
      let t = Policy.Interval_tree.create k ~capacity:64 in
      List.iter (fun r -> ignore (Policy.Interval_tree.add t r)) regions;
      Policy.Interval_tree.validate t = Ok ()
      && Policy.Interval_tree.count t = List.length regions
      && Policy.Interval_tree.regions t = regions)

let test_itree_pruned_lookup () =
  let k = fresh () in
  let t = Policy.Interval_tree.create k ~capacity:64 in
  for i = 0 to 63 do
    ignore (Policy.Interval_tree.add t (region (i * 1000) 100))
  done;
  checkb "valid" true (Policy.Interval_tree.validate t = Ok ());
  let worst = ref 0 in
  for i = 0 to 63 do
    let out = Policy.Interval_tree.lookup t ~addr:((i * 1000) + 50) ~size:4 in
    checkb "found" true (out.Policy.Structure.matched <> None);
    if out.Policy.Structure.scanned > !worst then
      worst := out.Policy.Structure.scanned
  done;
  (* the maxlim augmentation prunes the stabbing descent well below a
     full scan of the 64 disjoint regions *)
  checkb "sub-linear descent" true (!worst < 32)

(* ---------- bugfix sweep: mirrors, duplicates, capacity ---------- *)

(* After a remove, the kernel-memory image of the flat tables must be
   byte-identical to the host-side mirror — including the vacated slot,
   which is scrubbed to the never-matching hole value. Before the fix
   the shift left a stale copy of the last entry readable via
   Kernel.read past the logical end of the table. *)
let check_flat_mirror k ~vaddr regions ~scrubbed_slot =
  let word i j = Kernel.read k ~addr:(vaddr + (i * 24) + (j * 8)) ~size:8 in
  List.iteri
    (fun i (r : Policy.Region.t) ->
      checki "mirror base" r.Policy.Region.base (word i 0);
      checki "mirror len" r.Policy.Region.len (word i 1);
      checki "mirror prot" r.Policy.Region.prot (word i 2))
    regions;
  checki "scrubbed base" 0 (word scrubbed_slot 0);
  checki "scrubbed len" 1 (word scrubbed_slot 1);
  checki "scrubbed prot" 0 (word scrubbed_slot 2)

let test_linear_mirror_consistency () =
  let k = fresh () in
  let t = Policy.Linear_table.create k ~capacity:8 in
  List.iter
    (fun r -> ignore (Policy.Linear_table.add t r))
    [ region ~tag:"a" 100 10; region ~tag:"b" 200 10; region ~tag:"c" 300 10 ];
  checkb "removed" true (Policy.Linear_table.remove t ~base:200);
  match Policy.Linear_table.table_region t with
  | None -> Alcotest.fail "linear table has no kernel extent"
  | Some (vaddr, _) ->
    check_flat_mirror k ~vaddr (Policy.Linear_table.regions t) ~scrubbed_slot:2

(* Differential property over random add/remove/lookup streams: every
   structure kind must agree with the linear reference on remove
   results, surviving count, and the matched region of every probe —
   the canonical remove-first-occurrence semantics across every kind. *)

let prop_all_kinds_remove_differential =
  QCheck.Test.make ~name:"all kinds agree across add/remove streams"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         tup3 gen_disjoint_regions
           (list_size (int_range 0 10) (int_range 0 1000))
           (list_size (int_range 1 20) gen_probe)))
    (fun (regions, removes, probes) ->
      let bases =
        Array.of_list (List.map (fun r -> r.Policy.Region.base) regions)
      in
      (* one kernel per case: creating one zeroes 64 MiB of simulated
         memory, and the kinds' tables fit side by side in it *)
      let k = fresh () in
      let run kind =
        let inst = mk_instance k kind regions in
        let rms =
          List.map
            (fun i ->
              Policy.Structure.remove inst
                ~base:bases.(i mod Array.length bases))
            removes
        in
        let vs =
          List.map
            (fun (addr, size) ->
              (Policy.Structure.lookup inst ~addr ~size).Policy.Structure.matched)
            probes
        in
        (rms, Policy.Structure.count inst, vs)
      in
      let ref_rms, ref_n, ref_vs = run Policy.Engine.Linear in
      List.for_all
        (fun kind ->
          let rms, n, vs = run kind in
          rms = ref_rms && n = ref_n && vs = ref_vs)
        Policy.Engine.all_kinds)

(* Duplicate-base semantics, pinned: every structure that accepts two
   regions at the same base must remove the FIRST occurrence and let
   the second take over the lookup. *)
let test_duplicate_base_remove () =
  List.iter
    (fun kind ->
      let k = fresh () in
      let inst = Policy.Engine.make_instance k kind ~capacity:8 in
      let ok r =
        match Policy.Structure.add inst r with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "%s add: %s" (Policy.Engine.kind_to_string kind)
            (Policy.Structure.add_error_to_string e)
      in
      ok (region ~tag:"first" ~prot:Policy.Region.prot_read 0x10000 0x1000);
      ok (region ~tag:"second" 0x10000 0x1000);
      checkb "removed" true (Policy.Structure.remove inst ~base:0x10000);
      checki "one left" 1 (Policy.Structure.count inst);
      match
        (Policy.Structure.lookup inst ~addr:0x10080 ~size:8)
          .Policy.Structure.matched
      with
      | Some r ->
        Alcotest.(check string)
          (Policy.Engine.kind_to_string kind ^ " second survives")
          "second" r.Policy.Region.tag
      | None ->
        Alcotest.failf "%s: no match after remove"
          (Policy.Engine.kind_to_string kind))
    [ Policy.Engine.Linear; Policy.Engine.Itree; Policy.Engine.Shadow ]

(* Every structure kind at its exact capacity boundary: n = capacity
   fits, capacity + 1 is refused with the typed capacity error, and the
   table recovers after a remove. *)
let test_capacity_boundary_all_kinds () =
  List.iter
    (fun kind ->
      let name = Policy.Engine.kind_to_string kind in
      let k = fresh () in
      let inst = Policy.Engine.make_instance k kind ~capacity:8 in
      for i = 0 to 7 do
        match Policy.Structure.add inst (region (1000 + (i * 1000)) 100) with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "%s add %d: %s" name i
            (Policy.Structure.add_error_to_string e)
      done;
      checki (name ^ " at capacity") 8 (Policy.Structure.count inst);
      checkb (name ^ " typed capacity error") true
        (Policy.Structure.add inst (region 90_000 100)
        = Error (Policy.Structure.Full 8));
      checkb (name ^ " remove") true (Policy.Structure.remove inst ~base:1000);
      match Policy.Structure.add inst (region 90_000 100) with
      | Ok () -> checki (name ^ " recovered") 8 (Policy.Structure.count inst)
      | Error e ->
        Alcotest.failf "%s did not recover: %s" name
          (Policy.Structure.add_error_to_string e))
    Policy.Engine.all_kinds

(* ---------- ENOSPC and the batched install ioctl ---------- *)

let write_install_batch k ~arg ~domain regions =
  Kernel.write k ~addr:arg ~size:8 domain;
  Kernel.write k ~addr:(arg + 8) ~size:8 (List.length regions);
  List.iteri
    (fun i (r : Policy.Region.t) ->
      let a = arg + 16 + (i * 24) in
      Kernel.write k ~addr:a ~size:8 r.Policy.Region.base;
      Kernel.write k ~addr:(a + 8) ~size:8 r.Policy.Region.len;
      Kernel.write k ~addr:(a + 16) ~size:8 r.Policy.Region.prot)
    regions

let test_ioctl_add_enospc () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 64);
  let arg = Kernel.map_user k ~size:32 in
  Kernel.write k ~addr:arg ~size:8 0xA000;
  Kernel.write k ~addr:(arg + 8) ~size:8 0x100;
  Kernel.write k ~addr:(arg + 16) ~size:8 3;
  (* a full table answers with the typed -ENOSPC, not a generic error *)
  checki "enospc" Kernel.enospc
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_add ~arg);
  checki "count unchanged" 64
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0)

let test_ioctl_install_atomic () =
  let k, _pm = setup_pm () in
  let rs = [ region 0xA000 0x100; region 0xB000 0x100; region 0xC000 0x100 ] in
  let arg = Kernel.map_user k ~size:(16 + (3 * 24)) in
  write_install_batch k ~arg ~domain:0 rs;
  checki "install ok" 0
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_install ~arg);
  checki "count" 3
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  checki "guard governed by the batch" 0
    (Kernel.call_symbol k "carat_guard" [| 0xB010; 8; 1 |])

(* A batch the table cannot hold (or with a malformed record) installs
   NOTHING: old-or-new, never partial. *)
let test_ioctl_install_rollback () =
  let k, pm = setup_pm () in
  Policy.Policy_module.set_policy pm (Policy.Region.kernel_only_padded 60);
  let before = Policy.Engine.regions (Policy.Policy_module.engine pm) in
  let rs = List.init 10 (fun i -> region (0xA0000 + (i * 0x1000)) 0x100) in
  let arg = Kernel.map_user k ~size:(16 + (10 * 24)) in
  write_install_batch k ~arg ~domain:0 rs;
  checki "whole batch refused with -ENOSPC" Kernel.enospc
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_install ~arg);
  checki "count unchanged" 60
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_count ~arg:0);
  checkb "regions unchanged" true
    (Policy.Engine.regions (Policy.Policy_module.engine pm) = before);
  (* a malformed record anywhere in the batch rejects the whole batch
     before any mutation *)
  let bad = [ region 0xA0000 0x100; region 0xB0000 0x100 ] in
  write_install_batch k ~arg ~domain:0 bad;
  Kernel.write k ~addr:(arg + 16 + 24 + 8) ~size:8 0 (* record 1: zero len *);
  checki "malformed record rejects batch" Kernel.einval
    (Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_install ~arg);
  checkb "still unchanged" true
    (Policy.Engine.regions (Policy.Policy_module.engine pm) = before)

let test_ioctl_install_validation () =
  let k, _pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  checki "bad pointer" Kernel.einval (io ioctl_install (-8));
  let arg = Kernel.map_user k ~size:64 in
  write_install_batch k ~arg ~domain:0 [];
  checki "empty batch" Kernel.einval (io ioctl_install arg);
  Kernel.write k ~addr:(arg + 8) ~size:8 (install_batch_max + 1);
  checki "oversized batch" Kernel.erange (io ioctl_install arg);
  write_install_batch k ~arg ~domain:(-3) [ region 0xA000 0x100 ];
  checki "negative domain" Kernel.einval (io ioctl_install arg);
  (* a domain id > 0 with policy domains never enabled *)
  write_install_batch k ~arg ~domain:7 [ region 0xA000 0x100 ];
  checki "unknown domain" Kernel.einval (io ioctl_install arg)

(* ---------- policy domains ---------- *)

let test_domain_create_destroy_churn () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  Policy.Domain.set_verify dm true;
  let r = region 0x10000 0x1000 in
  let last_id = ref 0 in
  for _ = 1 to 20 do
    let d = Policy.Domain.create_domain dm in
    let id = Policy.Domain.dom_id d in
    checkb "ids never reused" true (id > !last_id);
    last_id := id;
    checki "install" 0 (Policy.Domain.install_regions dm ~domain:id [ r ]);
    checkb "allowed while live" true
      (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:1);
    checkb "destroyed" true (Policy.Domain.destroy_domain dm id);
    (* a destroyed domain fails closed, even with warm shadow slots *)
    checkb "denied after destroy" false
      (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:1)
  done;
  checki "no domains left" 0 (Policy.Domain.count dm);
  checki "zero stale allows across the churn" 0
    (Policy.Domain.stale_allows dm)

let test_domain_promotion_to_interval () =
  let k = fresh () in
  let dm = Policy.Domain.create ~fast_capacity:4 k in
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  let rs = List.init 6 (fun i -> region (0x10000 + (i * 0x2000)) 0x1000) in
  checki "install past the fast path" 0
    (Policy.Domain.install_regions dm ~domain:id rs);
  Alcotest.(check string) "promoted" "interval" (Policy.Domain.dom_structure d);
  checkb "promotion counted" true (Policy.Domain.promotions dm > 0);
  checki "all regions live" 6 (List.length (Policy.Domain.dom_regions d));
  List.iter
    (fun (r : Policy.Region.t) ->
      checkb "region served" true
        (Policy.Domain.check dm ~domain:id ~addr:r.Policy.Region.base ~size:8
           ~flags:1))
    rs;
  checkb "gap denied" false
    (Policy.Domain.check dm ~domain:id ~addr:0x11800 ~size:8 ~flags:1)

let test_domain_isolation () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  let a = Policy.Domain.dom_id (Policy.Domain.create_domain dm ~name:"a") in
  let b = Policy.Domain.dom_id (Policy.Domain.create_domain dm ~name:"b") in
  checki "a install" 0
    (Policy.Domain.install_regions dm ~domain:a [ region 0x10000 0x1000 ]);
  checki "b install" 0
    (Policy.Domain.install_regions dm ~domain:b [ region 0x20000 0x1000 ]);
  checkb "a sees a" true (Policy.Domain.check dm ~domain:a ~addr:0x10010 ~size:8 ~flags:1);
  checkb "a cannot see b" false (Policy.Domain.check dm ~domain:a ~addr:0x20010 ~size:8 ~flags:1);
  checkb "b sees b" true (Policy.Domain.check dm ~domain:b ~addr:0x20010 ~size:8 ~flags:1);
  checkb "b cannot see a" false (Policy.Domain.check dm ~domain:b ~addr:0x10010 ~size:8 ~flags:1)

let test_domain_shadow_epoch_invalidation () =
  let k = fresh () in
  let dm = Policy.Domain.create k in
  Policy.Domain.set_verify dm true;
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  checki "install" 0
    (Policy.Domain.install_regions dm ~domain:id [ region 0x10000 0x2000 ]);
  checkb "cold check" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  checkb "warm check" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  checkb "shadow hit recorded" true (Policy.Domain.dom_shadow_hits d > 0);
  let hits = Policy.Domain.dom_shadow_hits d in
  (* a policy change bumps the epoch: the warm slot must NOT answer *)
  checki "second install" 0
    (Policy.Domain.install_regions dm ~domain:id [ region 0x30000 0x1000 ]);
  checkb "still allowed after epoch bump" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10100 ~size:8 ~flags:1);
  checki "stale slot did not serve" hits (Policy.Domain.dom_shadow_hits d);
  checki "no stale allows" 0 (Policy.Domain.stale_allows dm)

(* Whole-batch rollback at the domain layer: a batch exceeding the
   interval tier's ceiling installs nothing. *)
let test_domain_install_rollback () =
  let k = fresh () in
  let dm = Policy.Domain.create ~fast_capacity:4 ~big_capacity:8 k in
  let d = Policy.Domain.create_domain dm in
  let id = Policy.Domain.dom_id d in
  let rs = List.init 5 (fun i -> region (0x10000 + (i * 0x2000)) 0x1000) in
  checki "first batch" 0 (Policy.Domain.install_regions dm ~domain:id rs);
  let epoch = Policy.Domain.dom_epoch d in
  let more = List.init 5 (fun i -> region (0x40000 + (i * 0x2000)) 0x1000) in
  checki "over-ceiling batch refused with -ENOSPC" Kernel.enospc
    (Policy.Domain.install_regions dm ~domain:id more);
  checki "regions unchanged" 5 (List.length (Policy.Domain.dom_regions d));
  checki "epoch unchanged by the failed batch" epoch
    (Policy.Domain.dom_epoch d);
  checkb "old policy still serves" true
    (Policy.Domain.check dm ~domain:id ~addr:0x10010 ~size:8 ~flags:1);
  checkb "refused batch not visible" false
    (Policy.Domain.check dm ~domain:id ~addr:0x40010 ~size:8 ~flags:1)

let test_domain_ioctl_roundtrip () =
  let k, pm = setup_pm () in
  let io cmd arg = Kernel.ioctl k ~dev:"carat" ~cmd ~arg in
  let open Policy.Policy_module in
  let a = io ioctl_domain_create 0 in
  let b = io ioctl_domain_create 1 (* default-allow *) in
  checki "first domain id" 1 a;
  checki "second domain id" 2 b;
  checki "two live" 2 (io ioctl_domain_count 0);
  let arg = Kernel.map_user k ~size:(16 + (2 * 24)) in
  write_install_batch k ~arg ~domain:a
    [ region 0x10000 0x1000; region 0x20000 0x1000 ];
  checki "batch into domain" 0 (io ioctl_install arg);
  let stat = Kernel.map_user k ~size:64 in
  Kernel.write k ~addr:stat ~size:8 a;
  checki "stats ok" 0 (io ioctl_domain_stats stat);
  let w i = Kernel.read k ~addr:(stat + (i * 8)) ~size:8 in
  checki "stats regions" 2 (w 0);
  checki "stats structure linear" 0 (w 5);
  (match domains pm with
  | None -> Alcotest.fail "domains not enabled by the ioctls"
  | Some dm ->
    checkb "deny domain denies" false
      (Policy.Domain.check dm ~domain:a ~addr:0x5000 ~size:8 ~flags:1);
    checkb "default-allow domain allows" true
      (Policy.Domain.check dm ~domain:b ~addr:0x5000 ~size:8 ~flags:1));
  checki "destroy" 0 (io ioctl_domain_destroy b);
  checki "destroy again" Kernel.einval (io ioctl_domain_destroy b);
  checki "destroy root refused" Kernel.einval (io ioctl_domain_destroy 0);
  checki "one left" 1 (io ioctl_domain_count 0);
  Kernel.write k ~addr:stat ~size:8 b;
  checki "stats of dead domain" Kernel.einval (io ioctl_domain_stats stat);
  write_install_batch k ~arg ~domain:b [ region 0x10000 0x1000 ];
  checki "install into dead domain" Kernel.einval (io ioctl_install arg)

let test_domains_procfs () =
  let k, pm = setup_pm () in
  let fs = Kernsvc.Kernfs.create k in
  let proc = Kernsvc.Procfs.install fs pm in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "placeholder before enabling" true
    (contains (Kernsvc.Procfs.read_domains proc) "not enabled");
  let id =
    Kernel.ioctl k ~dev:"carat" ~cmd:Policy.Policy_module.ioctl_domain_create
      ~arg:0
  in
  checki "created" 1 id;
  let s = Kernsvc.Procfs.read_domains proc in
  checkb "renders the domain row" true (contains s "dom 1");
  checkb "renders shard geometry" true (contains s "shards")

(* ---------- policy files with domains ---------- *)

let test_policy_file_domain_directive () =
  let t =
    Policy.Policy_file.parse
      "domain e1000e\ndefault deny\nregion 0x1000 0x100 rw\n"
  in
  Alcotest.(check string) "parsed" "e1000e" t.Policy.Policy_file.domain;
  let text = Policy.Policy_file.to_string t in
  let t2 = Policy.Policy_file.parse text in
  Alcotest.(check string) "round trip" "e1000e" t2.Policy.Policy_file.domain;
  Alcotest.(check string) "root policy has no domain" ""
    Policy.Policy_file.kernel_only.Policy.Policy_file.domain

let test_policy_lint_domain_capacity () =
  let rs = List.init 65 (fun i -> region (i * 0x2000) 0x1000) in
  let base =
    {
      Policy.Policy_file.default_allow = false;
      mode = Policy.Policy_module.Panic;
      domain = "";
      regions = rs;
    }
  in
  let codes t =
    List.map (fun f -> f.Policy.Policy_lint.code) (Policy.Policy_lint.lint t)
  in
  (* root policy: 65 regions overflow the fixed linear table — an error *)
  checkb "root overflows" true (List.mem "E-capacity" (codes base));
  (* the same table in a named domain merely promotes to the interval
     tier — a warning, not an error *)
  let domained = { base with Policy.Policy_file.domain = "net0" } in
  let cs = codes domained in
  checkb "domained is a promotion warning" true (List.mem "W-fastpath" cs);
  checkb "domained is not an error" false (List.mem "E-capacity" cs)

let () =
  Alcotest.run "policy"
    [
      ( "regions",
        [
          Alcotest.test_case "contains" `Quick test_region_contains;
          Alcotest.test_case "permits" `Quick test_region_permits;
          Alcotest.test_case "overlaps" `Quick test_region_overlaps;
          Alcotest.test_case "validation" `Quick test_region_validation;
          Alcotest.test_case "canonical policies" `Quick test_canonical_policies;
        ] );
      ( "linear",
        [
          Alcotest.test_case "capacity" `Quick test_linear_add_capacity;
          Alcotest.test_case "first match wins" `Quick test_linear_first_match_wins;
          Alcotest.test_case "remove keeps order" `Quick test_linear_remove_preserves_order;
          Alcotest.test_case "scan counts" `Quick test_linear_scan_counts;
        ] );
      ( "alternative-structures",
        [
          QCheck_alcotest.to_alcotest prop_splay_equiv;
          QCheck_alcotest.to_alcotest prop_itree_equiv;
          Alcotest.test_case "splay rejects overlap" `Quick test_splay_rejects_overlap;
          Alcotest.test_case "splay popularity" `Quick test_splay_popularity;
        ] );
      ( "engine",
        [
          Alcotest.test_case "default deny" `Quick test_engine_default_deny;
          Alcotest.test_case "default allow" `Quick test_engine_default_allow;
          Alcotest.test_case "permission mismatch" `Quick test_engine_permission_mismatch;
          Alcotest.test_case "set policy" `Quick test_engine_set_policy;
          Alcotest.test_case "scan depth cost" `Quick test_engine_cost_grows_with_scan_depth;
        ] );
      ( "policy-file",
        [
          Alcotest.test_case "round trip" `Quick test_policy_file_roundtrip;
          Alcotest.test_case "parse forms" `Quick test_policy_file_parse;
          Alcotest.test_case "parse errors" `Quick test_policy_file_errors;
          Alcotest.test_case "apply" `Quick test_policy_file_apply;
        ] );
      ( "policy-module",
        [
          Alcotest.test_case "guard allows" `Quick test_guard_allows;
          Alcotest.test_case "guard denies+logs" `Quick test_guard_denies_and_logs;
          Alcotest.test_case "guard panics" `Quick test_guard_panics_in_panic_mode;
          Alcotest.test_case "ioctl round trip" `Quick test_ioctl_roundtrip;
          Alcotest.test_case "ioctl bad region" `Quick test_ioctl_bad_region;
          Alcotest.test_case "ioctl validation" `Quick test_ioctl_validation;
          Alcotest.test_case "ioctl audit+selfheal" `Quick
            test_ioctl_audit_selfheal;
          Alcotest.test_case "ioctl set default" `Quick test_ioctl_set_default;
          Alcotest.test_case "ioctl stats" `Quick test_ioctl_stats;
          Alcotest.test_case "ioctl clear" `Quick test_ioctl_clear;
        ] );
      ( "interval-tree",
        [
          Alcotest.test_case "overlaps and duplicates" `Quick
            test_itree_overlaps_and_duplicates;
          Alcotest.test_case "remove first occurrence" `Quick
            test_itree_remove_first_occurrence;
          QCheck_alcotest.to_alcotest prop_itree_invariants;
          Alcotest.test_case "pruned lookup" `Quick test_itree_pruned_lookup;
        ] );
      ( "bugfix-sweep",
        [
          Alcotest.test_case "linear mirror consistency" `Quick
            test_linear_mirror_consistency;
          QCheck_alcotest.to_alcotest prop_all_kinds_remove_differential;
          Alcotest.test_case "duplicate-base remove" `Quick
            test_duplicate_base_remove;
          Alcotest.test_case "capacity boundary, all kinds" `Quick
            test_capacity_boundary_all_kinds;
        ] );
      ( "batched-install",
        [
          Alcotest.test_case "ioctl add enospc" `Quick test_ioctl_add_enospc;
          Alcotest.test_case "install atomic" `Quick test_ioctl_install_atomic;
          Alcotest.test_case "install rollback" `Quick
            test_ioctl_install_rollback;
          Alcotest.test_case "install validation" `Quick
            test_ioctl_install_validation;
        ] );
      ( "domains",
        [
          Alcotest.test_case "create/destroy churn" `Quick
            test_domain_create_destroy_churn;
          Alcotest.test_case "promotion to interval" `Quick
            test_domain_promotion_to_interval;
          Alcotest.test_case "isolation" `Quick test_domain_isolation;
          Alcotest.test_case "shadow epoch invalidation" `Quick
            test_domain_shadow_epoch_invalidation;
          Alcotest.test_case "install rollback" `Quick
            test_domain_install_rollback;
          Alcotest.test_case "ioctl round trip" `Quick
            test_domain_ioctl_roundtrip;
          Alcotest.test_case "procfs" `Quick test_domains_procfs;
          Alcotest.test_case "policy-file domain directive" `Quick
            test_policy_file_domain_directive;
          Alcotest.test_case "lint domain capacity" `Quick
            test_policy_lint_domain_capacity;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "commit hook tracks mutations" `Quick
            test_integrity_commit_hook_tracks_mutations;
          Alcotest.test_case "stale allow without integrity" `Quick
            test_stale_allow_without_integrity;
          Alcotest.test_case "shadow degrade+repromote" `Quick
            test_shadow_degrade_and_repromote;
          Alcotest.test_case "shadow semantic cross-check" `Quick
            test_shadow_semantic_crosscheck;
          Alcotest.test_case "ic degrade+repromote" `Quick
            test_ic_degrade_and_repromote;
          Alcotest.test_case "bounded retries then abandon" `Quick
            test_bounded_retries_then_abandon;
          Alcotest.test_case "selfheal procfs" `Quick test_selfheal_procfs;
        ] );
    ]
