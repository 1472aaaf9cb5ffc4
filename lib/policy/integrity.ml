(** Self-healing enforcement: integrity metadata over the derived guard
    tiers, the audit that checks them against the authoritative policy,
    and the degrade / rebuild / re-promote state machine.

    Threat model (MOAT/BULKHEAD's observation applied to ourselves): the
    enforcement machinery — shadow permission table, per-site inline
    caches, the RCU-published policy instance — is itself kernel memory a
    wild write can corrupt into *stale allows*. Every legitimate mutation
    funnels through {!Engine.bump_epoch}, where a commit hook re-snapshots
    the authoritative copy held here (region list + default action +
    digest). Out-of-band corruption bypasses that choke point, so the
    live tiers diverge from the authoritative copy and the next audit
    catches the divergence. (A corruption immediately followed by a
    legitimate mutation before any audit re-blesses the live state; the
    watchdog period bounds that window, and it is the same TOCTOU any
    snapshot-based integrity monitor accepts.)

    Tier trust lattice, top down:

    + compiled + inline caches (epoch-validated per-site slots, canaries)
    + shadow page table (per-slot checksums + semantic cross-check)
    + linear exact walk (digest tied back to the authoritative copy)

    On a mismatch the corrupt tier is *quarantined*: the inline caches
    are switched off and flushed, a corrupt shadow drops the engine to
    the linear interpreter fallback (a fresh instance built from the
    authoritative copy is published, so not a single check is served
    from the corrupt structure), and a corrupt instance is rebuilt from
    the authoritative copy immediately — there is no lower tier to fall
    to. Quarantined tiers are rebuilt and re-promoted after a cooldown,
    with bounded retries and exponential backoff; a tier that keeps
    failing re-audit is abandoned (left degraded) rather than flapping.
    Every transition emits [Tier_degraded]/[Tier_rebuilt] trace events
    and bumps the counters surfaced in /proc/carat. *)

type tier = Ic | Shadow_tier | Instance

let tier_code = function Ic -> 0 | Shadow_tier -> 1 | Instance -> 2

let tier_to_string = function
  | Ic -> "inline-cache"
  | Shadow_tier -> "shadow"
  | Instance -> "instance"

type state = Active | Quarantined | Abandoned

let state_to_string = function
  | Active -> "active"
  | Quarantined -> "quarantined"
  | Abandoned -> "abandoned"

(** Per-tier health cell. *)
type cell = {
  c_tier : tier;
  mutable c_state : state;
  mutable c_retries : int;  (** consecutive failed rebuild attempts *)
  mutable c_cooldown : int;  (** audits to wait before the next attempt *)
  mutable c_detected : int;
  mutable c_degradations : int;
  mutable c_rebuilds : int;
}

let make_cell tier =
  {
    c_tier = tier;
    c_state = Active;
    c_retries = 0;
    c_cooldown = 0;
    c_detected = 0;
    c_degradations = 0;
    c_rebuilds = 0;
  }

type config = {
  cooldown_audits : int;
      (** clean audits a quarantined tier waits before re-promotion *)
  max_retries : int;  (** failed rebuilds before the tier is abandoned *)
}

let default_config = { cooldown_audits = 2; max_retries = 3 }

type t = {
  engine : Engine.t;
  config : config;
  (* the authoritative copy, refreshed on every legitimate mutation *)
  mutable auth_regions : Region.t list;
  mutable auth_default : bool;
  mutable auth_digest : int;
  mutable route : Region.t list -> bool -> int;
      (** rebuild publisher: installs a fresh instance built from the
          authoritative copy and returns 0 or a negative errno. The
          policy module points this at its mutation router so SMP runs
          rebuild through the RCU publish path; the default publishes
          directly (single-CPU). *)
  ic : cell;
  shadow : cell;
  inst : cell;
  (* counters (also surfaced via ioctl + /proc/carat) *)
  mutable audits : int;
  mutable detections : int;
  mutable audit_cost_cycles : int;
      (** simulated cycles charged by audits, summed — the bench's
          detection-latency denominator *)
}

(* Folded per-region so every field of every region contributes —
   [Hashtbl.hash] alone bounds its structural traversal and would let a
   flip deep in a long region list slip through undigested. *)
let digest_of rs default_allow =
  List.fold_left
    (fun acc (r : Region.t) ->
      Hashtbl.hash (acc, r.Region.base, r.Region.len, r.Region.prot))
    (Hashtbl.hash default_allow)
    rs

(* The commit hook: re-snapshot the authoritative copy from the live
   engine. Runs after every epoch bump, i.e. after every legitimate
   mutation (including our own rebuild publishes). *)
let refresh t =
  t.auth_regions <- Engine.regions t.engine;
  t.auth_default <- Engine.default_allow t.engine;
  t.auth_digest <- digest_of t.auth_regions t.auth_default

let create ?(config = default_config) engine =
  let t =
    {
      engine;
      config;
      auth_regions = [];
      auth_default = false;
      auth_digest = 0;
      route =
        (fun rs d ->
          match Engine.build_instance engine rs with
          | Ok inst ->
            ignore (Engine.publish engine inst ~default_allow:d);
            0
          | Error e -> Structure.errno e);
      ic = make_cell Ic;
      shadow = make_cell Shadow_tier;
      inst = make_cell Instance;
      audits = 0;
      detections = 0;
      audit_cost_cycles = 0;
    }
  in
  refresh t;
  Engine.set_on_mutate engine (Some (fun () -> refresh t));
  t

let set_route t f = t.route <- f
let engine t = t.engine

(* ------------------------------------------------------------------ *)
(* per-tier audits *)

(* Page classification against the *authoritative* region list —
   the same semantics as {!Shadow_table.classify_page}, but over the
   trusted snapshot instead of the (possibly corrupt) live table. *)
let classify_auth t page =
  let lo = page lsl Shadow_table.page_bits in
  let hi = lo + Shadow_table.page_size in
  let rec go idx first_full = function
    | [] -> (
      match first_full with
      | Some (r, at) -> (Shadow_table.Uniform r, at + 1)
      | None -> (Shadow_table.No_region, List.length t.auth_regions))
    | (r : Region.t) :: rest ->
      let rlim = Region.limit r in
      if r.Region.base < hi && lo < rlim then
        if r.Region.base <= lo && hi <= rlim then
          go (idx + 1)
            (match first_full with Some _ -> first_full | None -> Some (r, idx))
            rest
        else (Shadow_table.Straddle, 0)
      else go (idx + 1) first_full rest
  in
  go 0 None t.auth_regions

(* The uniform-protection fact an inline-cache slot may legitimately
   hold for [page], derived from the authoritative copy (mirror of
   {!Engine.page_uniform_prot}). *)
let auth_page_prot t page =
  match classify_auth t page with
  | Shadow_table.Uniform r, depth -> Some (r.Region.prot, depth, r.Region.base)
  | Shadow_table.No_region, depth ->
    if t.auth_default then Some (Region.prot_rw, depth, -1) else Some (0, depth, -1)
  | (Shadow_table.Straddle | Shadow_table.Invalid), _ -> None

let charge t n =
  let machine = Kernel.machine t.engine.Engine.kernel in
  Machine.Model.retire machine n

(* Digest of the live instance vs the authoritative copy. *)
let audit_instance t =
  let live =
    digest_of (Engine.regions t.engine) (Engine.default_allow t.engine)
  in
  charge t (2 * max 1 (List.length t.auth_regions));
  live <> t.auth_digest

(* Shadow slots: checksum, then semantic cross-check against the
   authoritative classification. Returns the number of corrupt slots. *)
let audit_shadow t =
  match Engine.live_shadow t.engine with
  | None -> 0
  | Some s ->
    let bad = ref 0 in
    for i = 0 to Shadow_table.shadow_entries - 1 do
      if Shadow_table.slot_live s i then begin
        charge t 2;
        let sum_ok = s.Shadow_table.sums.(i) = Shadow_table.slot_sum s i in
        let page = s.Shadow_table.tags.(i) in
        let cls, depth = classify_auth t page in
        let sem_ok =
          Shadow_table.entry_code s.Shadow_table.state.(i)
            = Shadow_table.entry_code cls
          && (s.Shadow_table.depths.(i) = depth
             || s.Shadow_table.state.(i) = Shadow_table.Straddle)
        in
        if not (sum_ok && sem_ok) then incr bad
      end
    done;
    !bad

(* Inline-cache slots across every view: canary, then semantic
   cross-check of the cached (prot, depth, rbase) fact. Only slots
   stamped with the current epoch can answer, so only they are
   audited. *)
let audit_ic t =
  let e = t.engine in
  let bad = ref 0 in
  List.iter
    (fun v ->
      match v.Engine.v_site_cache with
      | None -> ()
      | Some sc ->
        for i = 0 to Engine.site_cache_size - 1 do
          if sc.Engine.sc_epoch.(i) = Engine.epoch e then begin
            charge t 2;
            let canary_ok = sc.Engine.sc_canary.(i) = Engine.canary_value i in
            let sem_ok =
              match auth_page_prot t sc.Engine.sc_page.(i) with
              | None -> false (* straddling pages are never cached *)
              | Some (prot, depth, rbase) ->
                sc.Engine.sc_prot.(i) = prot
                && sc.Engine.sc_depth.(i) = depth
                && sc.Engine.sc_rbase.(i) = rbase
            in
            if not (canary_ok && sem_ok) then incr bad
          end
        done)
    (Engine.views e);
  !bad

(* ------------------------------------------------------------------ *)
(* degrade / rebuild / re-promote *)

let emit t kind tier = Engine.lifecycle t.engine kind ~info:(tier_code tier)

(* The inline caches may serve only when both the ic tier and the shadow
   tier are trusted (a shadow quarantine widens the blast radius
   conservatively: everything derived is suspect). *)
let apply_ic_switch t =
  Engine.set_ic_enabled t.engine
    (t.ic.c_state = Active && t.shadow.c_state = Active)

let flush_all_ics t =
  List.iter Engine.flush_view_site_cache (Engine.views t.engine)

(* Publish a fresh instance of the engine's *active* kind built from the
   authoritative copy. Every degraded/rebuilt service change goes through
   here, so no check is ever served from a structure that was found
   corrupt. A refused rebuild leaves the live generation in place; the
   re-audit then still finds it corrupt and the retry back-off applies. *)
let publish_auth t = ignore (t.route t.auth_regions t.auth_default)

let degrade t (c : cell) =
  c.c_detected <- c.c_detected + 1;
  t.detections <- t.detections + 1;
  if c.c_state = Active then begin
    c.c_state <- Quarantined;
    c.c_retries <- 0;
    c.c_cooldown <- t.config.cooldown_audits;
    c.c_degradations <- c.c_degradations + 1;
    emit t Trace.Tier_degraded c.c_tier;
    match c.c_tier with
    | Ic ->
      apply_ic_switch t;
      flush_all_ics t
    | Shadow_tier ->
      (* drop to the linear interpreter fallback: publish a clean linear
         instance from the authoritative copy; the corrupt shadow is out
         of service before the next check *)
      Engine.set_active_kind t.engine Engine.Linear;
      apply_ic_switch t;
      publish_auth t
    | Instance ->
      (* no lower tier: rebuild from the authoritative copy on the spot *)
      publish_auth t
  end

(* A quarantined tier's audit tick: count the cooldown down, then attempt
   the rebuild; verify with a fresh audit of that tier; back off
   exponentially on failure, abandon after max_retries. *)
let attempt_repromote t (c : cell) ~(reaudit : unit -> bool) ~(rebuild : unit -> unit) =
  if c.c_state = Quarantined then begin
    c.c_cooldown <- c.c_cooldown - 1;
    if c.c_cooldown <= 0 then begin
      rebuild ();
      if reaudit () then begin
        c.c_state <- Active;
        c.c_retries <- 0;
        c.c_rebuilds <- c.c_rebuilds + 1;
        apply_ic_switch t;
        emit t Trace.Tier_rebuilt c.c_tier
      end
      else begin
        c.c_retries <- c.c_retries + 1;
        if c.c_retries >= t.config.max_retries then begin
          c.c_state <- Abandoned;
          apply_ic_switch t
        end
        else
          c.c_cooldown <-
            t.config.cooldown_audits * (1 lsl min c.c_retries 4)
      end
    end
  end

(** One audit cycle: check every tier against the authoritative copy,
    quarantine fresh corruption, tick quarantined tiers toward rebuild.
    Returns the number of corrupt tiers detected this cycle. The
    watchdog drives this periodically; the audit ioctl and
    [policy_manager audit] call it directly. *)
let audit t =
  t.audits <- t.audits + 1;
  let machine = Kernel.machine t.engine.Engine.kernel in
  let before = Machine.Model.cycles machine in
  charge t 20 (* audit entry: walk set-up, counter loads *);
  let found = ref 0 in
  (* instance first: it is the baseline the derived tiers are compared
     against, so heal it before judging them. Degrading republishes from
     the authoritative copy on the spot; the quarantine still rides the
     cooldown before the tier is trusted as fully healthy again *)
  (match t.inst.c_state with
  | Active ->
    if audit_instance t then begin
      incr found;
      degrade t t.inst
    end
  | Quarantined ->
    attempt_repromote t t.inst
      ~reaudit:(fun () -> not (audit_instance t))
      ~rebuild:(fun () -> publish_auth t)
  | Abandoned -> ());
  (* shadow tier *)
  (match t.shadow.c_state with
  | Active ->
    let bad = audit_shadow t in
    if bad > 0 then begin
      incr found;
      degrade t t.shadow
    end
  | Quarantined ->
    attempt_repromote t t.shadow
      ~reaudit:(fun () -> audit_shadow t = 0)
      ~rebuild:(fun () ->
        Engine.set_active_kind t.engine t.engine.Engine.kind;
        publish_auth t)
  | Abandoned -> ());
  (* inline caches *)
  (match t.ic.c_state with
  | Active ->
    if Engine.ic_enabled t.engine && audit_ic t > 0 then begin
      incr found;
      degrade t t.ic
    end
  | Quarantined ->
    attempt_repromote t t.ic
      ~reaudit:(fun () -> audit_ic t = 0)
      ~rebuild:(fun () -> flush_all_ics t)
  | Abandoned -> ());
  t.audit_cost_cycles <-
    t.audit_cost_cycles + (Machine.Model.cycles machine - before);
  !found

(* ------------------------------------------------------------------ *)
(* observability *)

(** Effective tier level the engine is serving from: 2 = full fast path
    (shadow + inline caches), 1 = shadow only (caches quarantined),
    0 = linear fallback. *)
let tier_level t =
  if Engine.active_kind t.engine <> t.engine.Engine.kind then 0
  else if not (Engine.ic_enabled t.engine) then 1
  else 2

let healthy t =
  t.ic.c_state = Active && t.shadow.c_state = Active
  && t.inst.c_state = Active

let cells t = [ t.ic; t.shadow; t.inst ]
let audits t = t.audits
let detections t = t.detections
let audit_cost_cycles t = t.audit_cost_cycles
let degradations t =
  List.fold_left (fun a c -> a + c.c_degradations) 0 (cells t)
let rebuilds t = List.fold_left (fun a c -> a + c.c_rebuilds) 0 (cells t)
let abandoned t =
  List.length (List.filter (fun c -> c.c_state = Abandoned) (cells t))

let render t =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "carat_selfheal: audits %d detections %d degradations %d rebuilds %d \
     abandoned %d tier_level %d audit_cycles %d\n"
    (audits t) (detections t) (degradations t) (rebuilds t) (abandoned t)
    (tier_level t) (audit_cost_cycles t);
  List.iter
    (fun c ->
      Printf.bprintf b
        "  %-12s %-11s detected %d degradations %d rebuilds %d retries %d\n"
        (tier_to_string c.c_tier)
        (state_to_string c.c_state)
        c.c_detected c.c_degradations c.c_rebuilds c.c_retries)
    (cells t);
  Buffer.contents b
