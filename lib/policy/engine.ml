(** The policy engine: a region structure plus the permission-check logic
    and counters. One engine backs one policy module instance.

    Check semantics (§3.1): walk the structure for the first region
    containing the accessed byte range; if found, the access is allowed
    iff the region's protection flags include every requested flag; if no
    region matches, the default action applies. The paper's evaluated
    configuration is the 64-entry linear table with default deny.

    Two optional fast tiers sit in front of the exact walk:

    - the {!Shadow} structure kind — a page-granular permission shadow
      ("guard TLB", see {!Shadow_table}) wrapped around the linear table;
    - per-guard-site inline caches ({!enable_site_cache}): a direct-mapped
      array keyed by the static site id the guard-injection pass assigns,
      each slot remembering the (page, protection) fact its site last
      resolved. A hit validates page and epoch, so the cached fact is
      site-independent truth and slot aliasing between sites is harmless.

    Both tiers are invalidated by a single {!epoch} counter bumped on
    every policy mutation (and, via the policy module, on every policy or
    mode ioctl), keeping live policy pushes and enforcement-mode flips
    exact. Both answer only when the answer provably equals the exact
    walk's; anything else (page straddle, cross-page access, unknown
    site, flag mismatch) falls back to the exact structure, so decisions
    are byte-for-byte identical to the plain walk.

    SMP: all hot-path counters, the inline cache, the trace sink and the
    denial diagnostic live in a {!view} — one per simulated CPU. A
    single-CPU engine has exactly one view (the default), and every
    accessor below reads it, so single-CPU behaviour and simulated cost
    are unchanged. The scheduler switches {!set_current_view} when it
    switches CPUs; {!merged_stats}/{!merged_tier} aggregate ftrace-style.
    Policy replacement for concurrent readers goes through
    {!build_instance}/{!publish}: the writer constructs a complete new
    structure generation off-line and installs it with a single pointer
    store (plus the usual epoch bump), so a reader mid-guard on another
    CPU only ever observes a fully-built table — never a half-written
    entry. Grace-period tracking and IPI shootdown live in [Smp.Rcu]. *)

(** One structure per trade-off PAPER §3.1 discusses: the evaluated
    cache-friendly scan ({!Linear}), adaptive pointer chasing ({!Splay}),
    logarithmic with overlaps ({!Itree}, the {!Domain} tier past 64
    regions), and the page shadow in front of the scan ({!Shadow}). *)
type kind = Linear | Splay | Itree | Shadow

let kind_to_string = function
  | Linear -> "linear"
  | Splay -> "splay"
  | Itree -> "interval"
  | Shadow -> "shadow+linear"

let all_kinds = [ Linear; Splay; Itree; Shadow ]

(** Decision statistics. Tier-invariant: a fast-tier (inline-cache) hit
    credits the same [entries_scanned] the exact walk would have
    recorded, so these counters depend only on the checks performed,
    never on which tier answered them (pinned by test_engine). *)
type stats = {
  mutable checks : int;
  mutable allowed : int;
  mutable denied : int;
  mutable entries_scanned : int;
}

(** Tier statistics: how often the site inline cache answered. These are
    the counters that legitimately differ between tiers, kept apart from
    the decision stats above. A "miss" is any fast-path entry that had to
    defer to the exact walk (cold/stale slot, wrong page, cross-page
    access, or a cached fact that could not prove an allow). *)
type tier_stats = { mutable ic_hits : int; mutable ic_misses : int }

type verdict =
  | Allowed of Region.t option
      (** matching region, or [None] under default-allow *)
  | Denied of Region.t option
      (** region that matched but lacked permissions, or [None] when
          nothing matched under default-deny *)

(* Per-guard-site inline caches: parallel int arrays (no per-entry boxing)
   indexed by [site land (site_cache_size - 1)]. A slot is a (epoch, page,
   prot) triple; [sc_prot] holds the page's uniform protection bits. The
   backing tag array lives in simulated kernel memory so hits charge one
   hot probe, like every other policy structure. *)
let site_cache_size = 1024

type site_cache = {
  sc_vaddr : int;
  sc_epoch : int array;
  sc_page : int array;
  sc_prot : int array;
  sc_canary : int array;
      (** per-slot canary words, written on every fill with a value
          derived from the slot index; a wild write spraying the cache
          arrays clobbers them, and the integrity watchdog checks them *)
  sc_pcs : int array;  (** stable branch-site ids per slot *)
  sc_depth : int array;
      (** entries the exact walk would scan for this page — cached so an
          inline-cache hit can credit the tier-invariant scan depth *)
  sc_rbase : int array;
      (** base of the first-match region for this page (-1 = none), for
          per-region trace attribution on a hit *)
}

(** Per-CPU execution view: everything the guard hot path reads or writes
    besides the shared policy structure itself. The default view is CPU
    0's (and the only one in single-CPU runs). *)
type view = {
  v_id : int;  (** CPU id, 0-based; the default view is 0 *)
  v_stats : stats;
  v_tier : tier_stats;
  mutable v_trace : Trace.t option;
      (** per-CPU observability sink; [None] (the default) makes every
          trace touch-point a single cheap match, keeping the traced-off
          path bit-identical to the pre-trace simulation *)
  mutable v_site_cache : site_cache option;
  mutable v_last_deny : Region.t option;
      (** diagnostics for this view's most recent {!check_fast} denial *)
  mutable v_stale : int;
      (** paranoid-mode mismatches: fast-path allows that a fresh exact
          reference walk would deny (must stay 0; see {!set_verify}) *)
}

type t = {
  kernel : Kernel.t;
  kind : kind;
      (** the configured structure kind — the top of the tier lattice *)
  mutable active_kind : kind;
      (** the kind the *live* instance has. Normally [kind]; the
          integrity layer lowers it while a corrupt tier is quarantined
          (shadow → linear fallback) and restores it on re-promotion.
          {!build_instance} builds successors of this kind. *)
  mutable ic_on : bool;
      (** inline-cache master switch. [true] normally; the integrity
          layer clears it to quarantine the compiled+ic tier, forcing
          every sited check down to the next tier. *)
  mutable on_mutate : (unit -> unit) option;
      (** commit hook run after every epoch bump — i.e. after every
          legitimate policy/mode mutation. The integrity layer registers
          a snapshot refresh here, so out-of-band corruption (which
          bypasses this choke point) diverges from the authoritative
          copy and is caught at the next audit. *)
  capacity : int;
  mutable instance : Structure.instance;
      (** the live policy generation; replaced wholesale by {!publish} *)
  mutable default_allow : bool;
  mutable epoch : int;
      (** bumped on every policy mutation; fast tiers validate against it *)
  mutable generation : int;
      (** RCU publication count; 0 until the first {!publish} *)
  mutable gen_ptr : int;
      (** simulated vaddr of the published-instance pointer cell;
          allocated lazily on first publish so classic single-CPU runs
          keep a bit-identical memory layout *)
  default_view : view;
  mutable views : view list;  (** all views, default first *)
  mutable cur : view;
  mutable verify : bool;
      (** host-side paranoia: cross-check every inline-cache allow
          against a fresh exact reference walk (no simulated cost) *)
  perm_pc : int array;
      (** branch-site ids for the permission branch, precomputed per
          protection value so the hot path allocates no strings; values
          are identical to [Hashtbl.hash ("perm", prot_to_string prot)] *)
}

let make_instance kernel kind ~capacity : Structure.instance =
  match kind with
  | Linear ->
    Structure.I ((module Linear_table), Linear_table.create kernel ~capacity)
  | Splay ->
    Structure.I ((module Splay_tree), Splay_tree.create kernel ~capacity)
  | Itree ->
    Structure.I ((module Interval_tree), Interval_tree.create kernel ~capacity)
  | Shadow ->
    Structure.I ((module Shadow_table), Shadow_table.create kernel ~capacity)

let make_view id =
  {
    v_id = id;
    v_stats = { checks = 0; allowed = 0; denied = 0; entries_scanned = 0 };
    v_tier = { ic_hits = 0; ic_misses = 0 };
    v_trace = None;
    v_site_cache = None;
    v_last_deny = None;
    v_stale = 0;
  }

let create ?(kind = Linear) ?(capacity = Linear_table.default_capacity)
    ?(default_allow = false) kernel =
  let dv = make_view 0 in
  {
    kernel;
    kind;
    active_kind = kind;
    ic_on = true;
    on_mutate = None;
    capacity;
    instance = make_instance kernel kind ~capacity;
    default_allow;
    epoch = 0;
    generation = 0;
    gen_ptr = -1;
    default_view = dv;
    views = [ dv ];
    cur = dv;
    verify = false;
    perm_pc =
      Array.init 4 (fun p -> Hashtbl.hash ("perm", Region.prot_to_string p));
  }

(** Invalidate every fast tier in O(1). Policy mutations call this
    internally; the policy module also bumps it on mode ioctls. Runs the
    integrity commit hook (when registered) so the authoritative snapshot
    tracks every legitimate mutation. *)
let bump_epoch t =
  t.epoch <- t.epoch + 1;
  match t.on_mutate with None -> () | Some f -> f ()

let epoch t = t.epoch
let set_on_mutate t f = t.on_mutate <- f

(* --- integrity/degradation control surface ------------------------- *)

let active_kind t = t.active_kind
let set_active_kind t k = t.active_kind <- k
let ic_enabled t = t.ic_on
let set_ic_enabled t b = t.ic_on <- b

(** The live instance's shadow table, when the active structure is the
    shadow kind — the integrity audit and the corruption fault classes
    need the concrete slot arrays behind the packed instance. *)
let live_shadow t =
  match Structure.repr t.instance with
  | Shadow_table.Shadow s -> Some s
  | _ -> None

(** The live instance's exact linear table (directly, or behind the
    shadow front), for instance-digest corruption injection. *)
let live_linear t =
  match Structure.repr t.instance with
  | Linear_table.Linear l -> Some l
  | Shadow_table.Shadow s -> Some (Shadow_table.inner s)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* views *)

let default_view t = t.default_view
let current_view t = t.cur
let views t = t.views
let view_id v = v.v_id
let view_stats v = v.v_stats
let view_tier v = v.v_tier
let view_trace v = v.v_trace
let view_set_trace v tr = v.v_trace <- tr
let view_last_deny v = v.v_last_deny
let view_stale_allows v = v.v_stale

(* the expected canary of each inline-cache slot, hashed once for every
   fill and every integrity audit to read *)
let canary_values =
  Array.init site_cache_size (fun i -> Hashtbl.hash ("ic-canary", i))

let canary_value i = canary_values.(i)

let alloc_site_cache kernel =
  {
    sc_vaddr = Kernel.kmalloc kernel ~size:(site_cache_size * 16);
    sc_epoch = Array.make site_cache_size (-1);
    sc_page = Array.make site_cache_size (-1);
    sc_prot = Array.make site_cache_size 0;
    sc_canary = Array.copy canary_values;
    sc_pcs = Array.init site_cache_size (fun i -> Hashtbl.hash ("site-ic", i));
    sc_depth = Array.make site_cache_size 0;
    sc_rbase = Array.make site_cache_size (-1);
  }

(** Register a fresh per-CPU view (with its own inline cache when
    [site_cache] is set). Views are append-only for the engine's
    lifetime; the scheduler owns which one is current. *)
let new_view ?(site_cache = false) t =
  let v = make_view (List.length t.views) in
  if site_cache then v.v_site_cache <- Some (alloc_site_cache t.kernel);
  t.views <- t.views @ [ v ];
  v

(** Make [v]'s counters/cache/trace the ones the hot path uses. Called by
    the SMP scheduler on every context switch; single-CPU runs never
    leave the default view. *)
let set_current_view t v = t.cur <- v

(** Drop a remote view's inline-cache contents, as an IPI shootdown
    handler would: every slot is retagged invalid. The epoch check
    already keeps stale slots from answering; this models the handler
    doing the flush work for real (cost is charged by the caller). *)
let flush_view_site_cache v =
  match v.v_site_cache with
  | None -> ()
  | Some sc ->
    Array.fill sc.sc_epoch 0 site_cache_size (-1);
    Array.fill sc.sc_page 0 site_cache_size (-1)

(** Attach/detach the observability sink (default view's — i.e. the only
    one in single-CPU runs). Detached (the default) costs nothing —
    simulated cycles stay bit-identical to a build without the trace
    layer (the bench [tracegate] target pins this). *)
let set_trace t tr = t.default_view.v_trace <- tr

let trace t = t.cur.v_trace

let lifecycle t kind ~info =
  match t.cur.v_trace with
  | None -> ()
  | Some tr -> Trace.on_lifecycle tr kind ~info

let add_region t r =
  match Structure.add t.instance r with
  | Ok () ->
    bump_epoch t;
    lifecycle t Trace.Policy_add ~info:r.Region.base;
    Ok ()
  | Error _ as e -> e

let remove_region t ~base =
  let removed = Structure.remove t.instance ~base in
  if removed then begin
    bump_epoch t;
    lifecycle t Trace.Policy_remove ~info:base
  end;
  removed

let clear t =
  Structure.clear t.instance;
  bump_epoch t;
  lifecycle t Trace.Policy_clear ~info:0

let set_default_allow t b =
  t.default_allow <- b;
  bump_epoch t;
  lifecycle t Trace.Policy_default ~info:(if b then 1 else 0)

let count t = Structure.count t.instance
let capacity t = t.capacity
let regions t = Structure.regions t.instance
let default_allow t = t.default_allow
let stats t = t.default_view.v_stats
let tier_stats t = t.default_view.v_tier
let structure_name t = Structure.name t.instance
let table_region t = Structure.table_region t.instance

(** Sum of the decision stats across every view (ftrace-style merge on
    read; the per-view records stay live). *)
let merged_stats t : stats =
  let m = { checks = 0; allowed = 0; denied = 0; entries_scanned = 0 } in
  List.iter
    (fun v ->
      m.checks <- m.checks + v.v_stats.checks;
      m.allowed <- m.allowed + v.v_stats.allowed;
      m.denied <- m.denied + v.v_stats.denied;
      m.entries_scanned <- m.entries_scanned + v.v_stats.entries_scanned)
    t.views;
  m

let merged_tier t : tier_stats =
  let m = { ic_hits = 0; ic_misses = 0 } in
  List.iter
    (fun v ->
      m.ic_hits <- m.ic_hits + v.v_tier.ic_hits;
      m.ic_misses <- m.ic_misses + v.v_tier.ic_misses)
    t.views;
  m

let reset_stats t =
  List.iter
    (fun v ->
      v.v_stats.checks <- 0;
      v.v_stats.allowed <- 0;
      v.v_stats.denied <- 0;
      v.v_stats.entries_scanned <- 0;
      v.v_tier.ic_hits <- 0;
      v.v_tier.ic_misses <- 0;
      v.v_stale <- 0)
    t.views

(** Add [rs] in order; the first refused add stops the walk and is
    returned, leaving the regions before it live. *)
let rec add_regions t = function
  | [] -> Ok ()
  | r :: rest -> Result.bind (add_region t r) (fun () -> add_regions t rest)

(** Load a whole policy, clearing the current one. *)
let load_policy t rs =
  clear t;
  add_regions t rs

(** [load_policy] for callers whose policy is known to fit; a refused
    add is a programming error. *)
let set_policy t rs =
  match load_policy t rs with
  | Ok () -> ()
  | Error e ->
    invalid_arg ("Engine.set_policy: " ^ Structure.add_error_to_string e)

(* ------------------------------------------------------------------ *)
(* RCU-style publication *)

let generation t = t.generation

(** Build a complete successor policy generation off to the side — a
    fresh structure of the engine's kind/capacity holding [rs] — without
    touching the live one. Construction cost (allocation + entry stores)
    is charged to the calling CPU's machine, like the writer building the
    new table before publishing. The first refused add aborts the build;
    the half-built successor was never reachable, so it is simply
    dropped. *)
let build_instance t rs : (Structure.instance, Structure.add_error) result =
  let inst = make_instance t.kernel t.active_kind ~capacity:t.capacity in
  Result.map (fun () -> inst) (Structure.add_all inst rs)

(** Install a fully-built generation with a single pointer store and bump
    the epoch (invalidating every view's fast tiers). Readers switch
    atomically from the old table to the new one — there is no interval
    in which a partially-written entry is reachable. Returns the retired
    generation for the caller's grace-period bookkeeping ([Smp.Rcu]
    frees it only after every CPU passes a quiescent point). *)
let publish t inst ~default_allow : Structure.instance =
  if t.gen_ptr < 0 then t.gen_ptr <- Kernel.kmalloc t.kernel ~size:8;
  let old = t.instance in
  t.instance <- inst;
  t.default_allow <- default_allow;
  t.generation <- t.generation + 1;
  bump_epoch t;
  (* the publish itself: one release store of the table pointer *)
  Machine.Model.store (Kernel.machine t.kernel) t.gen_ptr 8;
  lifecycle t Trace.Policy_publish ~info:t.generation;
  old

(* ------------------------------------------------------------------ *)
(* checks *)

(** Host-side reference verdict: the exact first-match walk over the
    live generation, with no simulated cost. Used by paranoid mode and
    the SMP stale-allow assertions to cross-check fast-tier answers
    against the policy as currently published. *)
let reference_allows t ~addr ~size ~flags =
  let rec go = function
    | [] -> t.default_allow
    | (r : Region.t) :: rest ->
      if Region.contains r ~addr ~size then Region.permits r ~flags
      else go rest
  in
  go (Structure.regions t.instance)

(** Enable/disable paranoid cross-checking of inline-cache allows (a
    host-side comparison — zero simulated cycles, so cycle goldens are
    unaffected). Mismatches count in {!stale_allows}. *)
let set_verify t b = t.verify <- b

let stale_allows t = List.fold_left (fun a v -> a + v.v_stale) 0 t.views

(* Decision-event emission; a single match when no sink is attached. *)
let emit_guard t ~site ~addr ~size ~flags ~allowed ~fast ~scanned ~region_base
    =
  match t.cur.v_trace with
  | None -> ()
  | Some tr ->
    Trace.on_guard tr ~site ~addr ~size ~flags ~allowed ~fast ~scanned
      ~region_base

(** The permissions check at the heart of [carat_guard]. Charges the
    guard-body prologue plus whatever the structure walk costs. [site] is
    the static guard-site id for observability attribution (-1 = not a
    guard site). *)
let check_sited t ~site ~addr ~size ~flags : verdict =
  let machine = Kernel.machine t.kernel in
  let st = t.cur.v_stats in
  (* prologue: argument marshalling, flag mask, bounds set-up *)
  Machine.Model.retire machine 4;
  let out = Structure.lookup t.instance ~addr ~size in
  st.checks <- st.checks + 1;
  st.entries_scanned <- st.entries_scanned + out.Structure.scanned;
  match out.Structure.matched with
  | Some r ->
    Machine.Model.retire machine 2;
    let ok = Region.permits r ~flags in
    Machine.Model.branch machine
      ~pc:t.perm_pc.(r.Region.prot land 3)
      ~taken:ok;
    emit_guard t ~site ~addr ~size ~flags ~allowed:ok ~fast:false
      ~scanned:out.Structure.scanned ~region_base:r.Region.base;
    if ok then begin
      st.allowed <- st.allowed + 1;
      (* paranoid cross-check (host-side, free when off): a shadow-tier
         allow must agree with the first-match walk over the region
         mirror — a corrupt slot's synthetic region would not *)
      if t.verify && not (reference_allows t ~addr ~size ~flags) then
        t.cur.v_stale <- t.cur.v_stale + 1;
      Allowed (Some r)
    end
    else begin
      st.denied <- st.denied + 1;
      Denied (Some r)
    end
  | None ->
    emit_guard t ~site ~addr ~size ~flags ~allowed:t.default_allow ~fast:false
      ~scanned:out.Structure.scanned ~region_base:(-1);
    if t.default_allow then begin
      st.allowed <- st.allowed + 1;
      Allowed None
    end
    else begin
      st.denied <- st.denied + 1;
      Denied None
    end

let check t ~addr ~size ~flags : verdict = check_sited t ~site:(-1) ~addr ~size ~flags

(* ------------------------------------------------------------------ *)
(* site-indexed inline-cache fast path *)

(** Allocate the inline-cache arrays for the default view (idempotent).
    Off by default so the paper's evaluated configuration — and its
    simulated-cycle figures — are untouched unless a run opts in. *)
let enable_site_cache t =
  match t.default_view.v_site_cache with
  | Some _ -> ()
  | None -> t.default_view.v_site_cache <- Some (alloc_site_cache t.kernel)

let site_cache_enabled t = t.default_view.v_site_cache <> None

(** Region that matched but lacked permission on the current view's most
    recent [check_fast] denial ([None] = nothing matched under
    default-deny). *)
let last_deny t = t.cur.v_last_deny

(* The page's uniform-permission classification iff it holds for every
   possible in-page byte range: every region either fully contains or is
   disjoint from the page, making the first full container (table order)
   the first-match answer for any in-page range. Partial overlap -> None
   (uncacheable). Returns [(prot, depth, rbase)]: the protection bits,
   the tier-invariant scan depth (how many entries the exact linear-order
   walk examines before answering — the match's 1-based position, or the
   region count when nothing matches), and the matched region's base (-1
   when uncovered). Uncovered pages get the default encoded as protection
   bits; flags = 0 never uses the cache (see [check_fast]), which keeps
   the "no region matched" deny-on-default exact. *)
let page_uniform_prot t page =
  let lo = page lsl Shadow_table.page_bits in
  let hi = lo + Shadow_table.page_size in
  let rec go idx first_full = function
    | [] -> (
      match first_full with
      | Some ((r : Region.t), at) -> Some (r.Region.prot, at + 1, r.Region.base)
      | None ->
        let depth = Structure.count t.instance in
        if t.default_allow then Some (Region.prot_rw, depth, -1)
        else Some (0, depth, -1))
    | (r : Region.t) :: rest ->
      let rlim = Region.limit r in
      if r.Region.base < hi && lo < rlim then
        if r.Region.base <= lo && hi <= rlim then
          go (idx + 1)
            (match first_full with Some _ -> first_full | None -> Some (r, idx))
            rest
        else None
      else go (idx + 1) first_full rest
  in
  go 0 None (Structure.regions t.instance)

(* Exact walk on behalf of [check_fast]: full cost, full diagnostics. *)
let check_slow t ~site ~addr ~size ~flags =
  match check_sited t ~site ~addr ~size ~flags with
  | Allowed _ ->
    t.cur.v_last_deny <- None;
    true
  | Denied m ->
    t.cur.v_last_deny <- m;
    false

let fill_site sc t ~i ~page =
  match page_uniform_prot t page with
  | None -> () (* straddling page: every access re-walks, by design *)
  | Some (prot, depth, rbase) ->
    sc.sc_epoch.(i) <- t.epoch;
    sc.sc_page.(i) <- page;
    sc.sc_prot.(i) <- prot;
    sc.sc_depth.(i) <- depth;
    sc.sc_rbase.(i) <- rbase;
    sc.sc_canary.(i) <- canary_value i;
    let machine = Kernel.machine t.kernel in
    (* classification arithmetic + the tag store; the walk itself was
       already charged by the exact lookup, like a TLB miss's page walk *)
    Machine.Model.retire machine (2 * Int.max 1 (Structure.count t.instance));
    Machine.Model.store machine (sc.sc_vaddr + (i * 16)) 8

(** Boolean fast-path check: allocation-free on an inline-cache hit, and
    decision-identical to {!check} always (misses and mismatches defer to
    it). [site] is the static guard-site id (-1 = unknown site, e.g. a
    legacy 3-argument guard call: always the exact walk). On denial the
    matching-region diagnostic is available from {!last_deny}. *)
let check_fast t ~site ~addr ~size ~flags : bool =
  let cv = t.cur in
  match cv.v_site_cache with
  | Some sc when t.ic_on && site >= 0 && addr >= 0 && flags <> 0 ->
    let machine = Kernel.machine t.kernel in
    (* same prologue the exact path charges *)
    Machine.Model.retire machine 4;
    let i = site land (site_cache_size - 1) in
    (* one probe of the site's slot (hot after first use) + validation *)
    Machine.Model.load machine (sc.sc_vaddr + (i * 16)) 8;
    Machine.Model.retire machine 2;
    let page = addr lsr Shadow_table.page_bits in
    let hit =
      sc.sc_epoch.(i) = t.epoch
      && sc.sc_page.(i) = page
      && (addr + size - 1) lsr Shadow_table.page_bits = page
    in
    Machine.Model.branch machine ~pc:sc.sc_pcs.(i) ~taken:hit;
    if hit then
      if flags land sc.sc_prot.(i) = flags then begin
        cv.v_stats.checks <- cv.v_stats.checks + 1;
        cv.v_stats.allowed <- cv.v_stats.allowed + 1;
        (* credit the scan depth the exact walk would have recorded, so
           decision stats do not depend on which tier answered *)
        cv.v_stats.entries_scanned <-
          cv.v_stats.entries_scanned + sc.sc_depth.(i);
        (* an allow supersedes any earlier denial diagnostic, exactly as
           the exact walk's Allowed branch does *)
        cv.v_last_deny <- None;
        cv.v_tier.ic_hits <- cv.v_tier.ic_hits + 1;
        if t.verify && not (reference_allows t ~addr ~size ~flags) then
          cv.v_stale <- cv.v_stale + 1;
        (match cv.v_trace with
        | None -> ()
        | Some tr ->
          Trace.on_fast_hit tr ~site;
          Trace.on_guard tr ~site ~addr ~size ~flags ~allowed:true ~fast:true
            ~scanned:sc.sc_depth.(i) ~region_base:sc.sc_rbase.(i));
        true
      end
      else begin
        (* cached fact says deny (or an exotic flag combination): take the
           exact walk for the authoritative verdict and diagnostics *)
        cv.v_tier.ic_misses <- cv.v_tier.ic_misses + 1;
        (match cv.v_trace with
        | None -> ()
        | Some tr -> Trace.on_fast_miss tr ~site);
        check_slow t ~site ~addr ~size ~flags
      end
    else begin
      cv.v_tier.ic_misses <- cv.v_tier.ic_misses + 1;
      (match cv.v_trace with
      | None -> ()
      | Some tr -> Trace.on_fast_miss tr ~site);
      let ok = check_slow t ~site ~addr ~size ~flags in
      if (addr + size - 1) lsr Shadow_table.page_bits = page then
        fill_site sc t ~i ~page;
      ok
    end
  | _ -> check_slow t ~site ~addr ~size ~flags

(* ------------------------------------------------------------------ *)
(* corruption injection (fault campaigns)

   These model a wild write from an ungoverned path (DMA, an unguarded
   module, a kernel bug) landing in a fast tier's metadata: they mutate
   the decode-side state the hot path actually consults, bypass the
   epoch/commit choke point, and charge no simulated cost — the damage
   is the environment's, not the victim module's, so the containment
   memory diff stays clean. *)

let site_slot site = site land (site_cache_size - 1)

(** Plant a stale-allow fact in [view]'s inline cache for [site]: the
    slot claims the current epoch, [page], and [prot] — so the very next
    sited check on that page is answered from the corrupt slot without
    any walk. [smash_canary] additionally clobbers the slot canary (the
    blunt corruption the cheap canary check catches; a consistent forgery
    leaves it intact and only the semantic audit catches it). Returns
    [false] when the view has no inline cache. *)
let corrupt_site_cache t view ~site ~page ~prot ~smash_canary =
  match view.v_site_cache with
  | None -> false
  | Some sc ->
    let i = site_slot site in
    sc.sc_epoch.(i) <- t.epoch;
    sc.sc_page.(i) <- page;
    sc.sc_prot.(i) <- prot;
    sc.sc_depth.(i) <- 1;
    sc.sc_rbase.(i) <- -1;
    if smash_canary then sc.sc_canary.(i) <- sc.sc_canary.(i) lxor 0xBAD;
    true

(** Corrupt the live shadow tier: the slot covering [page] is forced to
    a bogus uniform-[prot] fact. Returns [false] when the active
    structure has no shadow front. *)
let corrupt_shadow t ~page ~prot ~fix_checksum =
  match live_shadow t with
  | None -> false
  | Some s ->
    let region =
      Region.v ~tag:"corrupt" ~base:(page lsl Shadow_table.page_bits)
        ~len:Shadow_table.page_size ~prot ()
    in
    Shadow_table.corrupt_slot s ~page ~region ~fix_checksum;
    true

(** Corrupt the published policy instance itself: flip the protection
    bits of the region based at [base] in the exact table's decode
    mirror, making the authoritative-looking walk lie. Returns [false]
    when no such region exists or the structure keeps no linear table. *)
let corrupt_instance t ~base ~prot =
  match live_linear t with
  | None -> false
  | Some l -> Linear_table.corrupt_entry l ~base ~prot
