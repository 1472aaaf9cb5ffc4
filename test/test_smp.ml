(* The SMP layer: deterministic scheduler interleaving, RCU policy
   publication (no partially-written table is ever observable), IPI
   shootdown of remote site inline caches, merged per-CPU trace
   accounting, the ioctl routing through the publish path, and the
   stale-allow QCheck property over the update-storm workload. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let r350 = Machine.Presets.r350

(* two disjoint probe regions; the probe address lives in [r2] *)
let r1 = Policy.Region.v ~tag:"r1" ~base:0x10000 ~len:0x1000 ~prot:Policy.Region.prot_rw ()
let r2 = Policy.Region.v ~tag:"r2" ~base:0x20000 ~len:0x1000 ~prot:Policy.Region.prot_rw ()
let probe_addr = 0x20010

let table_a = [ r1; r2 ]
let table_b = [ r2; r1 ]

let mk_system ?(cpus = 2) ?(seed = 7) () =
  let kernel = Kernel.create ~require_signature:false ~seed r350 in
  let pm = Policy.Policy_module.install ~site_cache:true kernel in
  Policy.Policy_module.set_policy pm table_a;
  let smp = Smp.System.create ~seed ~params:r350 ~cpus kernel pm in
  (kernel, pm, smp)

(* ---------- scheduler determinism ---------- *)

let sched_log ~seed ~cpus ~ops =
  let count = Array.make cpus 0 in
  let log, stats =
    Smp.Sched.run ~seed
      (Array.init cpus (fun i () ->
           count.(i) <- count.(i) + 1;
           count.(i) < ops))
  in
  (log, stats, count)

let test_sched_deterministic () =
  let log1, s1, c1 = sched_log ~seed:5 ~cpus:3 ~ops:10 in
  let log2, s2, c2 = sched_log ~seed:5 ~cpus:3 ~ops:10 in
  checkb "same seed, same interleave" true (log1 = log2);
  checki "same op count" s1.Smp.Sched.ops s2.Smp.Sched.ops;
  checki "same slice count" s1.Smp.Sched.slices s2.Smp.Sched.slices;
  checkb "same per-cpu counts" true (c1 = c2);
  checki "every op logged" 30 (List.length log1);
  (* every CPU ran to completion *)
  Array.iter (fun c -> checki "cpu drained" 10 c) c1

let test_sched_quantum_interleaves () =
  (* quanta are 1..3 ops, so with 2 CPUs the log must actually alternate
     (not run one CPU to completion first) *)
  let log, _, _ = sched_log ~seed:3 ~cpus:2 ~ops:20 in
  let switches =
    let rec go = function
      | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + go rest
      | _ -> 0
    in
    go log
  in
  checkb "interleaved, not serial" true (switches > 5)

(* full-system determinism: same seed + workload => identical
   interleaving, per-CPU cycle counts, and trace event streams *)
let smp_run ~seed =
  let cfg =
    {
      Smp_testbed.default_config with
      cpus = 4;
      seed;
      machine = r350;
    }
  in
  let tb = Smp_testbed.create ~config:cfg () in
  let traces = Smp.System.enable_tracing ~capacity:256 (Smp_testbed.smp tb) in
  let r = Smp_testbed.run_pktgen ~count:60 ~storm:15 tb in
  let stream =
    List.map
      (fun (cpu, e) -> Printf.sprintf "cpu%d %s" cpu (Trace.format_event e))
      (Trace.merged_events (Array.to_list traces))
  in
  (r, stream)

let test_system_deterministic () =
  let r1, s1 = smp_run ~seed:42 in
  let r2, s2 = smp_run ~seed:42 in
  checkb "identical interleaving" true
    (r1.Smp_testbed.interleave = r2.Smp_testbed.interleave);
  checkb "identical per-CPU cycle counts" true
    (Array.for_all2
       (fun (a : Smp_testbed.cpu_result) b ->
         a.Smp_testbed.cr_cycles = b.Smp_testbed.cr_cycles)
       r1.Smp_testbed.per_cpu r2.Smp_testbed.per_cpu);
  checkb "identical throughput" true (r1.Smp_testbed.pps = r2.Smp_testbed.pps);
  checki "identical publication count" r1.Smp_testbed.publications
    r2.Smp_testbed.publications;
  checkb "trace streams non-empty" true (s1 <> []);
  checkb "identical merged trace event streams" true (s1 = s2)

(* ---------- RCU publication ---------- *)

(* A CPU mid-guard never observes a half-written table: CPU 0 storms
   whole-policy replaces (both tables allow the probe) while CPU 1
   checks the probe address every operation. Under the RCU route every
   check must allow; stale-allow paranoia is on throughout. *)
let test_rcu_no_partial_table () =
  let _, pm, smp = mk_system () in
  let engine = Smp.System.engine smp in
  Policy.Engine.set_verify engine true;
  let denies = ref 0 and checks = ref 0 and writes = ref 0 in
  let steps =
    [|
      (fun () ->
        incr writes;
        let t = if !writes land 1 = 0 then table_a else table_b in
        checki "replace accepted" 0
          (Policy.Policy_module.replace_policy pm t);
        !writes < 24);
      (fun () ->
        incr checks;
        (match
           Policy.Engine.check engine ~addr:probe_addr ~size:8
             ~flags:Policy.Region.prot_write
         with
        | Policy.Engine.Allowed _ -> ()
        | Policy.Engine.Denied _ -> incr denies);
        !checks < 80);
    |]
  in
  ignore (Smp.System.run smp steps);
  checki "no deny ever observed mid-replace" 0 !denies;
  checki "no stale allows" 0 (Policy.Engine.stale_allows engine);
  checki "every replace published a generation" 24
    (Policy.Engine.generation engine);
  let rs = Smp.Rcu.stats (Smp.System.rcu smp) in
  checki "every generation retired after grace" rs.Smp.Rcu.publications
    rs.Smp.Rcu.retired

(* negative control: the same probe DOES see a partial state when the
   replace is done in place as separate structure edits — proving the
   regression test above is sensitive to what it claims to catch *)
let test_in_place_replace_is_observable () =
  let _, _, smp = mk_system () in
  let engine = Smp.System.engine smp in
  (* detach the RCU route: back to classic in-place mutations *)
  let pm_steps = ref 0 and denies = ref 0 and checks = ref 0 in
  let steps =
    [|
      (fun () ->
        incr pm_steps;
        (match !pm_steps with
        | 1 -> Policy.Engine.clear engine
        | 2 -> (
          match Policy.Engine.add_region engine r1 with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Policy.Structure.add_error_to_string e))
        | 3 -> (
          match Policy.Engine.add_region engine r2 with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Policy.Structure.add_error_to_string e))
        | _ -> ());
        !pm_steps < 4);
      (fun () ->
        incr checks;
        (match
           Policy.Engine.check engine ~addr:probe_addr ~size:8
             ~flags:Policy.Region.prot_write
         with
        | Policy.Engine.Allowed _ -> ()
        | Policy.Engine.Denied _ -> incr denies);
        !checks < 12);
    |]
  in
  ignore (Smp.System.run smp steps);
  checkb "probe observes the partially-built table" true (!denies > 0)

let test_publish_returns_old_generation () =
  let kernel = Kernel.create ~require_signature:false r350 in
  let pm = Policy.Policy_module.install kernel in
  let engine = Policy.Policy_module.engine pm in
  Policy.Policy_module.set_policy pm table_a;
  let inst = Result.get_ok (Policy.Engine.build_instance engine table_b) in
  let old = Policy.Engine.publish engine inst ~default_allow:false in
  checki "generation bumped" 1 (Policy.Engine.generation engine);
  (* the retired instance still holds the old table *)
  checki "old generation intact" 2 (Policy.Structure.count old);
  checkb "old generation is table A" true
    ((List.hd (Policy.Structure.regions old)).Policy.Region.base
    = r1.Policy.Region.base);
  (* the live table switched atomically *)
  checkb "live generation is table B" true
    ((List.hd (Policy.Engine.regions engine)).Policy.Region.base
    = r2.Policy.Region.base)

(* ---------- IPI shootdown ---------- *)

let test_ipi_flushes_remote_cache () =
  let _, pm, smp = mk_system () in
  let traces = Smp.System.enable_tracing ~capacity:64 smp in
  let cpus = Smp.System.cpus smp in
  let w = ref 0 and r = ref 0 in
  let steps =
    [|
      (fun () ->
        incr w;
        if !w = 1 then
          checki "replace ok" 0 (Policy.Policy_module.replace_policy pm table_b);
        !w < 2);
      (fun () ->
        incr r;
        ignore
          (Policy.Engine.check (Smp.System.engine smp) ~addr:probe_addr
             ~size:8 ~flags:Policy.Region.prot_write);
        !r < 4);
    |]
  in
  ignore (Smp.System.run smp steps);
  let rs = Smp.Rcu.stats (Smp.System.rcu smp) in
  checki "one IPI sent" 1 rs.Smp.Rcu.ipis_sent;
  checki "one IPI taken" 1 rs.Smp.Rcu.ipis_taken;
  checkb "IPI cost charged to the remote CPU" true
    (cpus.(1).Smp.Cpu.ipi_cycles > 0);
  (* the flush landed in CPU 1's ring, not CPU 0's *)
  let has_flush tr =
    List.exists
      (fun (e : Trace.event) -> e.Trace.kind = Trace.Ipi_flush)
      (Trace.events tr)
  in
  checkb "cpu1 traced the ipi-flush" true (has_flush traces.(1));
  checkb "cpu0 did not" false (has_flush traces.(0))

(* ---------- ioctl routing (satellite: set-mode/region ioctls) ---------- *)

let test_ioctls_route_through_rcu () =
  let kernel, pm, smp = mk_system () in
  let engine = Smp.System.engine smp in
  checki "no publications yet" 0 (Policy.Engine.generation engine);
  (* region add via the ioctl ABI: base/len/prot block *)
  let arg = Kernel.kmalloc kernel ~size:24 in
  Kernel.write kernel ~addr:arg ~size:8 0x30000;
  Kernel.write kernel ~addr:(arg + 8) ~size:8 0x1000;
  Kernel.write kernel ~addr:(arg + 16) ~size:8 Policy.Region.prot_rw;
  checki "ioctl add ok" 0
    (Policy.Policy_module.handle_ioctl pm kernel
       ~cmd:Policy.Policy_module.ioctl_add ~arg);
  checki "add published a generation" 1 (Policy.Engine.generation engine);
  checki "region landed" 3 (Policy.Engine.count engine);
  (* remove routes too *)
  Kernel.write kernel ~addr:arg ~size:8 0x30000;
  checki "ioctl remove ok" 0
    (Policy.Policy_module.handle_ioctl pm kernel
       ~cmd:Policy.Policy_module.ioctl_remove ~arg);
  checki "remove published a generation" 2 (Policy.Engine.generation engine);
  (* set-mode: scalar applied in place (no table generation) but the
     shootdown still fires at the other CPU *)
  let cpus = Smp.System.cpus smp in
  cpus.(1).Smp.Cpu.ipi_pending <- false;
  checki "ioctl set-mode ok" 0
    (Policy.Policy_module.handle_ioctl pm kernel
       ~cmd:Policy.Policy_module.ioctl_set_mode
       ~arg:
         (Policy.Policy_module.on_deny_to_int Policy.Policy_module.Quarantine));
  checkb "set-mode shot down the remote cache" true
    cpus.(1).Smp.Cpu.ipi_pending;
  checki "mode did not fabricate a table generation" 2
    (Policy.Engine.generation engine)

let test_single_cpu_stays_in_place () =
  let _, pm, smp = mk_system ~cpus:1 () in
  let engine = Smp.System.engine smp in
  checki "one view only" 1 (List.length (Policy.Engine.views engine));
  checki "mutation applied" 0
    (Policy.Policy_module.apply pm
       (Policy.Policy_module.M_add
          (Policy.Region.v ~tag:"x" ~base:0x40000 ~len:0x100
             ~prot:Policy.Region.prot_rw ())));
  (* in-place path: the epoch moves, the RCU generation does not *)
  checki "no RCU generation on 1 CPU" 0 (Policy.Engine.generation engine)

(* ---------- merged per-CPU trace accounting (satellite) ---------- *)

let test_merged_drop_accounting () =
  let kernel = Kernel.create ~require_signature:false r350 in
  let mk () =
    let tr = Trace.create ~capacity:8 kernel in
    Trace.start tr;
    tr
  in
  let t0 = mk () and t1 = mk () and t2 = mk () in
  let put tr n =
    for i = 0 to n - 1 do
      Trace.on_lifecycle tr Trace.Mode_change ~info:i
    done
  in
  (* 20 -> 12 dropped; 9 -> 1 dropped; 5 -> 0 dropped *)
  put t0 20;
  put t1 9;
  put t2 5;
  checki "ring 0 drops" 12 (Trace.dropped t0);
  checki "ring 1 drops" 1 (Trace.dropped t1);
  checki "ring 2 drops" 0 (Trace.dropped t2);
  let ts = [ t0; t1; t2 ] in
  checki "merged drops are the exact sum" 13 (Trace.merged_dropped ts);
  checki "merged recorded are the exact sum" 34 (Trace.merged_recorded ts);
  let merged = Trace.merged_events ts in
  checki "merged stream holds the survivors" (8 + 8 + 5)
    (List.length merged);
  (* ordered by cycle stamp, stable across equal stamps *)
  let rec sorted = function
    | (_, (a : Trace.event)) :: ((_, b) :: _ as rest) ->
      a.Trace.cycles <= b.Trace.cycles && sorted rest
    | _ -> true
  in
  checkb "merged stream cycle-ordered" true (sorted merged);
  (* a reader draining one ring must not disturb the others' accounting *)
  ignore (Trace.read_next t0);
  put t1 10;
  checki "drops still sum, not race" (12 + 11) (Trace.merged_dropped ts)

(* The lifecycle events of a self-healing episode (tier-degraded /
   tier-rebuilt) survive deny floods that wrap the per-CPU rings, and the
   merged stream keeps them in episode order with exact drop sums. *)
let test_tier_events_survive_wraparound () =
  let kernel = Kernel.create ~require_signature:false r350 in
  let mk () =
    let tr = Trace.create ~capacity:8 kernel in
    Trace.start tr;
    tr
  in
  (* cpu0 and cpu2 take the deny flood; cpu1 is where the watchdog fires *)
  let t0 = mk () and t1 = mk () and t2 = mk () in
  let deny tr n =
    for i = 0 to n - 1 do
      Trace.on_lifecycle tr Trace.Guard_deny ~info:i
    done
  in
  deny t0 6;
  Trace.on_lifecycle t1 Trace.Tier_degraded ~info:1;
  deny t0 6;
  deny t2 10;
  Trace.on_lifecycle t1 Trace.Tier_rebuilt ~info:1;
  deny t0 2;
  checki "flood ring 0 wrapped" 6 (Trace.dropped t0);
  checki "flood ring 2 wrapped" 2 (Trace.dropped t2);
  checki "watchdog ring kept everything" 0 (Trace.dropped t1);
  let ts = [ t0; t1; t2 ] in
  checki "merged drops are the exact sum" 8 (Trace.merged_dropped ts);
  checki "merged recorded are the exact sum" 26 (Trace.merged_recorded ts);
  let merged = Trace.merged_events ts in
  checki "survivors" (8 + 2 + 8) (List.length merged);
  (* merged order is (cycles, cpu, seq) *)
  let rec ordered = function
    | (c1, (a : Trace.event)) :: ((c2, b) :: _ as rest) ->
      (a.Trace.cycles < b.Trace.cycles
      || (a.Trace.cycles = b.Trace.cycles
         && (c1 < c2 || (c1 = c2 && a.Trace.seq < b.Trace.seq))))
      && ordered rest
    | _ -> true
  in
  checkb "merged stream strictly (cycles,cpu,seq)-ordered" true
    (ordered merged);
  let idx_of kind =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing from merged stream" (Trace.kind_to_string kind)
      | (_, (e : Trace.event)) :: rest ->
        if e.Trace.kind = kind then i else go (i + 1) rest
    in
    go 0 merged
  in
  let d = idx_of Trace.Tier_degraded and r = idx_of Trace.Tier_rebuilt in
  checkb "degraded precedes rebuilt after the merge" true (d < r);
  (* every pre-degrade deny on cpu0 was overwritten by the flood, so in
     the merged stream the episode opener precedes every cpu0 survivor *)
  List.iteri
    (fun i (cpu, (e : Trace.event)) ->
      if cpu = 0 && e.Trace.kind = Trace.Guard_deny then
        checkb "cpu0 survivors are all post-degrade" true (i > d))
    merged;
  (* a reader draining the flooded ring leaves the merged totals exact *)
  ignore (Trace.read_next t0);
  checki "drain does not disturb the sum" 8 (Trace.merged_dropped ts)

(* Corruption racing RCU publication: CPU 0 storms whole-table replaces
   while CPU 1 corrupts the live instance out-of-band and then runs the
   watchdog audit in the same quantum. The audit must detect, the repair
   must ride the RCU publish path (generation moves past the storm's),
   and the engine must end healthy with zero stale allows. *)
let test_corruption_races_publication () =
  let _, pm, smp = mk_system () in
  let engine = Smp.System.engine smp in
  let ig = Policy.Policy_module.enable_integrity pm in
  Policy.Engine.set_verify engine true;
  let storms = 12 in
  let writes = ref 0 and checks = ref 0 and denies = ref 0 in
  let corrupted = ref false and audits = ref 0 in
  let steps =
    [|
      (fun () ->
        if !writes < storms then begin
          incr writes;
          let t = if !writes land 1 = 0 then table_a else table_b in
          checki "replace accepted" 0 (Policy.Policy_module.replace_policy pm t)
        end
        else begin
          (* keep servicing grace periods while the heal completes *)
          incr checks;
          match
            Policy.Engine.check engine ~addr:probe_addr ~size:8
              ~flags:Policy.Region.prot_write
          with
          | Policy.Engine.Allowed _ -> ()
          | Policy.Engine.Denied _ -> incr denies
        end;
        !checks < 40);
      (fun () ->
        if (not !corrupted) && !writes >= 4 then begin
          (* wild write to the live instance, then the watchdog fires
             before the next publication can paper over it *)
          corrupted :=
            Policy.Engine.corrupt_instance engine ~base:r1.Policy.Region.base
              ~prot:0;
          checkb "corruption landed between publications" true !corrupted;
          checkb "audit detects the race" true (Policy.Integrity.audit ig > 0)
        end
        else if !corrupted then incr audits;
        if !corrupted && !audits > 0 then ignore (Policy.Integrity.audit ig);
        !audits < 12);
    |]
  in
  ignore (Smp.System.run smp steps);
  checki "storm fully published" storms !writes;
  checkb "detection recorded" true (Policy.Integrity.detections ig > 0);
  checkb "instance tier rebuilt" true (Policy.Integrity.rebuilds ig > 0);
  checkb "healthy after the episode" true (Policy.Integrity.healthy ig);
  checki "full tier restored" 2 (Policy.Integrity.tier_level ig);
  (* the rebuild's publish rides the same RCU route as the storm *)
  checkb "repair published a generation beyond the storm" true
    (Policy.Engine.generation engine > storms);
  checki "no stale allow during or after the episode" 0
    (Policy.Engine.stale_allows engine);
  checki "probes after the storm never denied" 0 !denies

(* ---------- update-storm property ---------- *)

(* concurrent policy updates never yield a stale allow once the grace
   period completes: paranoid verification is on inside run_pktgen, and
   every published generation must retire *)
let prop_no_stale_allow_under_storm =
  QCheck.Test.make ~count:6
    ~name:"update storm yields zero stale allows and full retirement"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg =
        {
          Smp_testbed.default_config with
          cpus = 2 + (seed mod 3);
          seed;
          machine = (if seed land 1 = 0 then r350 else Machine.Presets.r415);
        }
      in
      let tb = Smp_testbed.create ~config:cfg () in
      let r = Smp_testbed.run_pktgen ~count:60 ~storm:12 tb in
      r.Smp_testbed.stale_allows = 0
      && r.Smp_testbed.publications > 0
      && r.Smp_testbed.retired = r.Smp_testbed.publications
      && r.Smp_testbed.send_errors = 0)

(* ---------- multi-queue scaling sanity ---------- *)

let test_smp_throughput_scales () =
  let run cpus =
    let cfg = { Smp_testbed.default_config with cpus; seed = 9 } in
    let tb = Smp_testbed.create ~config:cfg () in
    (Smp_testbed.run_pktgen ~count:150 tb).Smp_testbed.pps
  in
  let p1 = run 1 and p2 = run 2 and p4 = run 4 in
  checkb "2 CPUs beat 1" true (p2 > p1);
  checkb "4 CPUs beat 2" true (p4 > p2);
  checkb "4-CPU efficiency at least 70%" true (p4 /. (4.0 *. p1) >= 0.70)


(* ---------- batched install under SMP ---------- *)

(* ioctl_install's whole batch rides ONE RCU generation swap: a reader
   mid-storm observes the old table or old+batch, never a partial
   prefix. The visible region count is the observable. *)
let test_rcu_install_batch_atomic () =
  let _, pm, smp = mk_system () in
  let engine = Smp.System.engine smp in
  Policy.Engine.set_verify engine true;
  let batch =
    List.init 8 (fun i ->
        Policy.Region.v ~base:(0x40000 + (i * 0x1000)) ~len:0x100
          ~prot:Policy.Region.prot_rw ())
  in
  let installed = ref false and partial = ref 0 and checks = ref 0 in
  let steps =
    [|
      (fun () ->
        checki "batch accepted" 0
          (Policy.Policy_module.apply pm
             (Policy.Policy_module.M_install batch));
        installed := true;
        false);
      (fun () ->
        incr checks;
        let n = Policy.Engine.count engine in
        if n <> 2 && n <> 10 then incr partial;
        (* the probe stays allowed across the install *)
        (match
           Policy.Engine.check engine ~addr:probe_addr ~size:8
             ~flags:Policy.Region.prot_write
         with
        | Policy.Engine.Allowed _ -> ()
        | Policy.Engine.Denied _ -> Alcotest.fail "probe denied mid-install");
        !checks < 40);
    |]
  in
  ignore (Smp.System.run smp steps);
  checkb "install ran" true !installed;
  checki "no partially-visible batch" 0 !partial;
  checki "batch fully live" 10 (Policy.Engine.count engine);
  checki "no stale allows" 0 (Policy.Engine.stale_allows engine);
  let rs = Smp.Rcu.stats (Smp.System.rcu smp) in
  checki "whole batch was one publication" 1 rs.Smp.Rcu.publications

(* A batch that cannot fit publishes NOTHING through the RCU route. *)
let test_rcu_install_batch_rollback () =
  let _, pm, smp = mk_system () in
  let engine = Smp.System.engine smp in
  let big =
    List.init 63 (fun i ->
        Policy.Region.v ~base:(0x100000 + (i * 0x1000)) ~len:0x100
          ~prot:Policy.Region.prot_rw ())
  in
  ignore smp;
  checki "over-capacity batch refused with -ENOSPC" Kernel.enospc
    (Policy.Policy_module.apply pm (Policy.Policy_module.M_install big));
  checki "nothing installed" 2 (Policy.Engine.count engine);
  checki "no publication for the refused batch" 0
    (Smp.Rcu.stats (Smp.System.rcu smp)).Smp.Rcu.publications

(* A region the structure cannot represent is refused with -EINVAL
   whichever route the mutation takes: the splay tree rejects overlaps,
   and the in-place add and batched install (1 CPU) must answer exactly
   as the RCU publishes (2 CPUs) do, leaving the policy untouched. *)
let test_overlap_einval_every_route () =
  let overlap =
    Policy.Region.v ~base:0x10800 ~len:0x1000 ~prot:Policy.Region.prot_rw ()
  in
  List.iter
    (fun cpus ->
      let kernel = Kernel.create ~require_signature:false ~seed:7 r350 in
      let pm = Policy.Policy_module.install ~kind:Policy.Engine.Splay kernel in
      Policy.Policy_module.set_policy pm table_a;
      let smp = Smp.System.create ~seed:7 ~params:r350 ~cpus kernel pm in
      let route = Printf.sprintf "%d cpu" cpus in
      checki (route ^ " add") Kernel.einval
        (Policy.Policy_module.apply pm (Policy.Policy_module.M_add overlap));
      checki (route ^ " install") Kernel.einval
        (Policy.Policy_module.apply pm
           (Policy.Policy_module.M_install [ overlap ]));
      checki (route ^ " policy untouched") 2
        (Policy.Engine.count (Policy.Policy_module.engine pm));
      checki (route ^ " nothing published") 0
        (Smp.Rcu.stats (Smp.System.rcu smp)).Smp.Rcu.publications)
    [ 1; 2 ]

(* ---------- multi-domain churn under SMP ---------- *)

(* One CPU churns per-domain policies (install / remove / teardown)
   while the other CPUs hammer Domain.check across several domains with
   paranoid verification on: zero stale allows, and destroyed domains
   fail closed from every CPU. *)
let test_multidomain_churn_no_stale () =
  let kernel = Kernel.create ~require_signature:false ~seed:11 r350 in
  let pm = Policy.Policy_module.install kernel in
  let smp = Smp.System.create ~seed:11 ~params:r350 ~cpus:4 kernel pm in
  let dm = Policy.Policy_module.enable_domains pm in
  Policy.Domain.set_verify dm true;
  let doms =
    Array.init 3 (fun i ->
        let d =
          Policy.Domain.create_domain dm ~name:(Printf.sprintf "tenant%d" i)
        in
        let id = Policy.Domain.dom_id d in
        checki "seed install" 0
          (Policy.Domain.install_regions dm ~domain:id
             [
               Policy.Region.v
                 ~base:(0x10000 * (i + 1))
                 ~len:0x1000 ~prot:Policy.Region.prot_rw ();
             ]);
        id)
  in
  let writer_ops = ref 0 in
  let writer () =
    incr writer_ops;
    let id = doms.(!writer_ops mod 3) in
    (match !writer_ops mod 3 with
    | 0 ->
      ignore
        (Policy.Domain.install_regions dm ~domain:id
           [
             Policy.Region.v
               ~base:(0x100000 + (!writer_ops * 0x1000))
               ~len:0x100 ~prot:Policy.Region.prot_rw ();
           ])
    | 1 ->
      ignore
        (Policy.Domain.remove_region dm ~domain:id
         ~base:(0x100000 + ((!writer_ops - 1) * 0x1000)))
    | _ ->
      (* teardown/recreate churn on a scratch domain *)
      let d = Policy.Domain.create_domain dm in
      ignore (Policy.Domain.destroy_domain dm (Policy.Domain.dom_id d)));
    !writer_ops < 30
  in
  let reader i =
    let ops = ref 0 in
    fun () ->
      incr ops;
      let id = doms.(!ops mod 3) in
      let want = !ops mod 3 = i mod 3 in
      ignore want;
      ignore
        (Policy.Domain.check dm ~domain:id
           ~addr:(0x10000 * ((!ops mod 3) + 1))
           ~size:8 ~flags:1);
      (* cross-domain probe must stay denied *)
      Alcotest.(check bool)
        "cross-domain denied" false
        (Policy.Domain.check dm ~domain:id ~addr:0x9000 ~size:8 ~flags:1);
      !ops < 60
  in
  let steps =
    Array.init 4 (fun i -> if i = 0 then writer else reader i)
  in
  ignore (Smp.System.run smp steps);
  checki "zero stale allows across domain churn" 0
    (Policy.Domain.stale_allows dm);
  checki "three tenants still live" 3 (Policy.Domain.count dm);
  (* every tenant's base region survived the churn *)
  Array.iteri
    (fun i id ->
      checkb "tenant region live" true
        (Policy.Domain.check dm ~domain:id
           ~addr:(0x10000 * (i + 1))
           ~size:8 ~flags:1))
    doms

let () =
  Alcotest.run "smp"
    [
      ( "sched",
        [
          Alcotest.test_case "same seed, same interleaving" `Quick
            test_sched_deterministic;
          Alcotest.test_case "quanta interleave CPUs" `Quick
            test_sched_quantum_interleaves;
          Alcotest.test_case "full system run is reproducible" `Slow
            test_system_deterministic;
        ] );
      ( "rcu",
        [
          Alcotest.test_case "no partial table mid-guard" `Quick
            test_rcu_no_partial_table;
          Alcotest.test_case "in-place replace IS observable (control)"
            `Quick test_in_place_replace_is_observable;
          Alcotest.test_case "publish swaps generations atomically" `Quick
            test_publish_returns_old_generation;
          Alcotest.test_case "IPI flushes the remote cache" `Quick
            test_ipi_flushes_remote_cache;
          Alcotest.test_case "ioctls route through the publish path" `Quick
            test_ioctls_route_through_rcu;
          Alcotest.test_case "single CPU keeps the in-place path" `Quick
            test_single_cpu_stays_in_place;
        ] );
      ( "trace",
        [
          Alcotest.test_case "per-CPU ring drops sum exactly" `Quick
            test_merged_drop_accounting;
          Alcotest.test_case "tier events survive wraparound" `Quick
            test_tier_events_survive_wraparound;
        ] );
      ( "selfheal",
        [
          Alcotest.test_case "corruption races publication" `Quick
            test_corruption_races_publication;
        ] );
      ( "batched-install",
        [
          Alcotest.test_case "batch is one RCU generation" `Quick
            test_rcu_install_batch_atomic;
          Alcotest.test_case "refused batch publishes nothing" `Quick
            test_rcu_install_batch_rollback;
          Alcotest.test_case "overlap is -EINVAL on every route" `Quick
            test_overlap_einval_every_route;
        ] );
      ( "domains",
        [
          Alcotest.test_case "multi-domain churn, zero stale" `Quick
            test_multidomain_churn_no_stale;
        ] );
      ( "storm",
        [
          QCheck_alcotest.to_alcotest prop_no_stale_allow_under_storm;
          Alcotest.test_case "throughput scales with CPUs" `Slow
            test_smp_throughput_scales;
        ] );
    ]
