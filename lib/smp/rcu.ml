(** RCU-style policy publication with grace periods and IPI shootdown.

    Under SMP, a policy mutation no longer edits the live table that
    other CPUs may be mid-scan over. Instead the writer:

    + builds a complete successor table off to the side
      ({!Policy.Engine.build_instance} — construction cost charged to
      the writing CPU),
    + publishes it with a single pointer store
      ({!Policy.Engine.publish} — readers switch atomically; no CPU can
      ever observe a half-written entry),
    + sends an IPI shootdown to every other CPU, which flushes its site
      inline cache at its next scheduling point (entry/exit + flush
      cycles charged to the *remote* CPU — the real cross-CPU cost of a
      policy update), and
    + retires the old generation only after a grace period: every CPU
      has passed a quiescent point (completed a scheduler operation)
      since the publish. The simulation has no allocator-level free, so
      retirement drops the last reference and records the grace latency.

    Wired into {!Policy.Policy_module} via {!attach}: every region/mode
    ioctl then routes through this path, so `policy_manager` mutations
    made on one CPU while another is mid-guard are safe by construction.

    Mode changes ([M_set_mode]) are a single scalar store, not a table;
    they apply in place (atomic by nature) but still trigger the IPI
    shootdown so remote fast tiers re-observe the engine promptly. *)

(* IPI cost model (cycles): one APIC write per target on the sender;
   interrupt entry/exit plus the inline-cache flush on each receiver.
   Same order as remote TLB-shootdown costs on the paper's testbeds. *)
let ipi_send_cycles = 180
let ipi_entry_cycles = 420
let ipi_flush_cycles = 260

type stats = {
  mutable publications : int;  (** table generations published *)
  mutable retired : int;  (** generations reclaimed after grace *)
  mutable ipis_sent : int;
  mutable ipis_taken : int;
  mutable ipi_cycles : int;  (** total cycles remote CPUs spent in IPIs *)
  mutable grace_quiescents : int;
      (** summed grace-period lengths, in quiescent events between
          publish and retire (deterministic across runs, unlike
          wall-clock deltas between per-CPU clocks) *)
  mutable max_pending : int;  (** high-water mark of unretired gens *)
}

type pending = {
  p_gen : int;
  p_birth : int;  (** global quiescent count at publish *)
  p_inst : Policy.Structure.instance;  (** the retired table, kept live *)
}

type t = {
  engine : Policy.Engine.t;
  pm : Policy.Policy_module.t;
  cpus : Cpu.t array;
  mutable current : int;  (** CPU executing right now (set by the system) *)
  mutable pending : pending list;  (** newest first *)
  mutable qcount : int;  (** global quiescent-event counter *)
  stats : stats;
  mutable race : Sanitizer.Race.t option;
      (** happens-before detector; publish/IPI/quiesce/retire emit their
          sync edges and interval events here when attached *)
}

let create ~pm cpus =
  {
    engine = Policy.Policy_module.engine pm;
    pm;
    cpus;
    current = 0;
    pending = [];
    qcount = 0;
    stats =
      {
        publications = 0;
        retired = 0;
        ipis_sent = 0;
        ipis_taken = 0;
        ipi_cycles = 0;
        grace_quiescents = 0;
        max_pending = 0;
      };
    race = None;
  }

let stats t = t.stats
let pending_generations t = List.length t.pending
let set_current t cpu = t.current <- cpu
let set_race t det = t.race <- det

(* --------------------------------------------------------------- *)
(* race-detector sync edges and revocation bookkeeping.

   The publication token orders writer and flushers: publish releases
   it, every IPI service acquires it. Each quiescent point releases a
   per-CPU grace token; retirement acquires them all, so the reclaim of
   an old generation's table is ordered after every reader's last scan
   of it. Write-grant coverage *lost* across a publish becomes a
   revocation window: module stores landing there from another CPU have
   no happens-before path to the revocation and are flagged. *)

let pub_token = "rcu:pub"
let grace_token cpu = "rcu:q" ^ string_of_int cpu

(* [base, limit) ranges a region list grants write access to *)
let write_ranges rs =
  List.filter_map
    (fun (r : Policy.Region.t) ->
      if r.prot land Policy.Region.prot_write <> 0 then
        Some (r.base, r.base + r.len)
      else None)
    rs

(* portions of [lo, hi) not covered by any range in [covers] *)
let rec subtract (lo, hi) covers =
  if lo >= hi then []
  else
    match
      List.filter (fun (clo, chi) -> clo < hi && lo < chi) covers
    with
    | [] -> [ (lo, hi) ]
    | (clo, chi) :: _ ->
      subtract (lo, Int.min hi clo) covers @ subtract (Int.max lo chi, hi) covers

let note_publish t ~old_regions ~new_regions =
  match t.race with
  | None -> ()
  | Some det ->
    let old_w = write_ranges old_regions and new_w = write_ranges new_regions in
    (* coverage lost: revocation windows *)
    List.iter
      (fun r ->
        List.iter
          (fun (lo, hi) -> Sanitizer.Race.revoke det ~lo ~hi ~site:"rcu-publish")
          (subtract r new_w))
      old_w;
    (* coverage (re)granted: clears any stale windows over it *)
    List.iter (fun (lo, hi) -> Sanitizer.Race.grant det ~lo ~hi) new_w;
    Sanitizer.Race.release det pub_token

(** Flag an IPI on every CPU but the sender. Back-to-back publishes
    coalesce on a still-pending flag, as real shootdowns do. *)
let shootdown t =
  let sender = t.cpus.(t.current) in
  Array.iter
    (fun (c : Cpu.t) ->
      if c.id <> sender.Cpu.id then begin
        t.stats.ipis_sent <- t.stats.ipis_sent + 1;
        Machine.Model.add_cycles sender.machine ipi_send_cycles;
        c.ipi_pending <- true;
        c.ipi_from <- sender.id
      end)
    t.cpus;
  (* the writer's own inline cache: flushed synchronously *)
  Policy.Engine.flush_view_site_cache sender.view

(** Service a pending shootdown on [cpu]: interrupt entry, flush the
    local site inline cache, record the cost against that CPU. Called by
    the system's [on_switch] hook, after [cpu]'s view became current (so
    the [Ipi_flush] trace event lands in [cpu]'s ring). *)
let service_ipi t cpu =
  let c = t.cpus.(cpu) in
  if c.Cpu.ipi_pending then begin
    c.ipi_pending <- false;
    let before = Machine.Model.cycles c.machine in
    Machine.Model.add_cycles c.machine ipi_entry_cycles;
    Policy.Engine.flush_view_site_cache c.view;
    Machine.Model.add_cycles c.machine ipi_flush_cycles;
    let spent = Machine.Model.cycles c.machine - before in
    c.ipis_taken <- c.ipis_taken + 1;
    c.ipi_cycles <- c.ipi_cycles + spent;
    t.stats.ipis_taken <- t.stats.ipis_taken + 1;
    t.stats.ipi_cycles <- t.stats.ipi_cycles + spent;
    (* the flush is the acquire side of the publication edge *)
    (match t.race with
    | Some det -> Sanitizer.Race.acquire det pub_token
    | None -> ());
    Policy.Engine.lifecycle t.engine Trace.Ipi_flush ~info:c.ipi_from
  end

(** Record a quiescent point on [cpu] (it completed an operation and
    holds no policy references) and retire every pending generation the
    whole system has now quiesced past. *)
let quiesce t cpu =
  t.qcount <- t.qcount + 1;
  let c = t.cpus.(cpu) in
  c.Cpu.q_gen <- Policy.Engine.generation t.engine;
  (match t.race with
  | Some det -> Sanitizer.Race.release det (grace_token cpu)
  | None -> ());
  match t.pending with
  | [] -> ()
  | _ ->
    let min_gen =
      Array.fold_left (fun a (c : Cpu.t) -> Int.min a c.q_gen) max_int t.cpus
    in
    let keep, retire =
      List.partition (fun p -> p.p_gen > min_gen) t.pending
    in
    t.pending <- keep;
    (* grace complete: the reclaimer is ordered after every CPU's last
       quiescent point, so the retire-time interval write over the old
       table must come out race-free — the detector proves it *)
    (match (t.race, retire) with
    | Some det, _ :: _ ->
      Array.iteri (fun i _ -> Sanitizer.Race.acquire det (grace_token i)) t.cpus
    | _ -> ());
    List.iter
      (fun p ->
        (match t.race with
        | Some det -> (
          match Policy.Structure.table_region p.p_inst with
          | Some (base, len) ->
            Sanitizer.Race.sync_write det ~lo:base ~hi:(base + len)
              ~site:"rcu-retire"
          | None -> ())
        | None -> ());
        t.stats.retired <- t.stats.retired + 1;
        t.stats.grace_quiescents <-
          t.stats.grace_quiescents + (t.qcount - p.p_birth))
      retire

let publish_regions t rs ~default_allow =
  let old_regions = Policy.Engine.regions t.engine in
  match Policy.Engine.build_instance t.engine rs with
  | Error e ->
    (* the successor never became reachable, so the live generation is
       untouched — a failed publish rolls back the whole mutation by
       construction, with the same errno the in-place route returns *)
    Policy.Structure.errno e
  | Ok inst ->
    let old = Policy.Engine.publish t.engine inst ~default_allow in
    note_publish t ~old_regions ~new_regions:rs;
    t.pending <-
      {
        p_gen = Policy.Engine.generation t.engine;
        p_birth = t.qcount;
        p_inst = old;
      }
      :: t.pending;
    t.stats.publications <- t.stats.publications + 1;
    t.stats.max_pending <- Int.max t.stats.max_pending (List.length t.pending);
    shootdown t;
    0

(** The {!Policy.Policy_module.mutation} router: every mutation becomes
    a full-generation publish (except mode, a scalar applied in place —
    see the module doc). This is the function {!attach} installs. *)
let apply t (m : Policy.Policy_module.mutation) : int =
  let e = t.engine in
  let regions () = Policy.Engine.regions e in
  let default () = Policy.Engine.default_allow e in
  match m with
  | M_set_mode _ ->
    let rc = Policy.Policy_module.apply_in_place t.pm m in
    if rc = 0 then begin
      (match t.race with
      | Some det -> Sanitizer.Race.release det pub_token
      | None -> ());
      shootdown t
    end;
    rc
  | M_add r -> publish_regions t (regions () @ [ r ]) ~default_allow:(default ())
  | M_remove base ->
    let rs = regions () in
    if List.exists (fun (r : Policy.Region.t) -> r.base = base) rs then
      (* first occurrence only — the canonical duplicate-base semantics
         every structure's in-place [remove] implements *)
      let rec drop_first = function
        | [] -> []
        | (r : Policy.Region.t) :: rest ->
          if r.base = base then rest else r :: drop_first rest
      in
      publish_regions t (drop_first rs) ~default_allow:(default ())
    else -1
  | M_install rs ->
    (* the batched install: one generation swap covers the whole batch,
       so concurrent readers observe the old policy or all N new regions
       — never a prefix. A capacity failure inside build_instance leaves
       the live generation untouched (whole-batch rollback). *)
    publish_regions t (regions () @ rs) ~default_allow:(default ())
  | M_clear -> publish_regions t [] ~default_allow:(default ())
  | M_set_default b -> publish_regions t (regions ()) ~default_allow:b
  | M_replace (rs, d) -> publish_regions t rs ~default_allow:d
  | M_rebuild (rs, d) ->
    (* an integrity repair is a policy publish like any other: the
       corrupt generation stays live for readers mid-scan until the
       grace period retires it, and every remote CPU's inline cache is
       shot down before it can serve a stale allow *)
    publish_regions t rs ~default_allow:d

(** Route all of [pm]'s ioctl mutations through this RCU instance. *)
let attach t = Policy.Policy_module.set_mutator t.pm (Some (apply t))
