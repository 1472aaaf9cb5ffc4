(** Multi-tenant policy domains — the MOAT/BULKHEAD-scale extension of
    the paper's single 64-entry table: every loaded module gets its own
    policy domain (table instance + epoch + stats), so hundreds of
    modules with thousands of regions total no longer share one table or
    one invalidation epoch.

    Two-tier check path, mirroring the engine's shadow/inline-cache
    design at domain granularity:

    + a *sharded global shadow page table* in front: direct-mapped slots
      keyed by (domain, page), each remembering the page's uniform
      protection under that domain's policy. A hit costs one probe and
      answers without touching the domain's table; a slot is valid only
      for the domain epoch it was filled in, so any domain mutation
      invalidates exactly that domain's facts in O(1).
    + per-domain exact structures behind it: a domain starts on the
      paper's evaluated 64-entry linear table, and is promoted wholesale
      to the {!Interval_tree} (the only O(log n) structure with
      first-match semantics) the first time an install pushes it past the
      fast path. Promotion is a build-and-swap publish, never an in-place
      conversion.

    Mutations are generational, like {!Engine.publish}: a successor
    instance is built off-line and installed with a single pointer store
    plus a domain-epoch bump. The batched {!install_regions} therefore
    gives old-or-new atomicity for the whole batch — and a capacity
    failure while building the successor leaves the live generation
    untouched, which is the whole-batch ENOSPC rollback the ioctl
    contract requires. *)

(* sharded global shadow front: [shard_count] independent direct-mapped
   shard arrays of [shard_slots] slots each. Sharding keeps slot
   contention between domains bounded: a hot domain can evict at most
   one shard's worth of another domain's facts. *)
let shard_count = 16
let shard_slots = 256
let slot_bytes = 16

type slot = {
  mutable sl_dom : int;  (** owning domain id; -1 = invalid *)
  mutable sl_page : int;
  mutable sl_epoch : int;  (** domain epoch at fill time *)
  mutable sl_prot : int;  (** the page's uniform protection bits *)
  mutable sl_depth : int;  (** exact-walk scan depth, tier-invariant *)
}

type dom = {
  d_id : int;
  d_name : string;
  mutable d_inst : Structure.instance;  (** live generation *)
  mutable d_itree : bool;  (** promoted past the linear fast path *)
  mutable d_default_allow : bool;
  mutable d_epoch : int;  (** bumped on every mutation; shadow validates *)
  mutable d_regions : Region.t list;
      (** authoritative insertion-order mirror of the live generation;
          the reference for paranoid verification and successor builds *)
  d_stats : Engine.stats;
  mutable d_sh_hits : int;
  mutable d_sh_misses : int;
}

type t = {
  kernel : Kernel.t;
  fast_capacity : int;  (** linear-tier limit; past it, interval tree *)
  big_capacity : int;  (** interval-tier limit (hard ENOSPC ceiling) *)
  mutable doms : dom list;  (** newest last; ids are never reused *)
  by_id : (int, dom) Hashtbl.t;
      (** O(1) id index over [doms] — the guard hot path resolves its
          domain here, so tenant count must not show up in lookup cost *)
  mutable next_id : int;
  shard_vaddrs : int array;  (** simulated tag array per shard *)
  shards : slot array array;
  shard_pcs : int array array;  (** branch-site id of every slot *)
  mutable creates : int;
  mutable destroys : int;
  mutable publications : int;
  mutable retired : int;
  mutable promotions : int;  (** linear -> interval tier upgrades *)
  mutable verify : bool;
  mutable stale : int;
}

let default_big_capacity = 1 lsl 14

let create ?(fast_capacity = Linear_table.default_capacity)
    ?(big_capacity = default_big_capacity) kernel =
  {
    kernel;
    fast_capacity;
    big_capacity;
    doms = [];
    by_id = Hashtbl.create 64;
    next_id = 1;
    shard_vaddrs =
      Array.init shard_count (fun _ ->
          Kernel.kmalloc kernel ~size:(shard_slots * slot_bytes));
    shards =
      Array.init shard_count (fun _ ->
          Array.init shard_slots (fun _ ->
              {
                sl_dom = -1;
                sl_page = -1;
                sl_epoch = -1;
                sl_prot = 0;
                sl_depth = 0;
              }));
    shard_pcs =
      Array.init shard_count (fun shard ->
          Array.init shard_slots (fun idx ->
              Structure.branch_site ("dom-shadow", shard, idx)));
    creates = 0;
    destroys = 0;
    publications = 0;
    retired = 0;
    promotions = 0;
    verify = false;
    stale = 0;
  }

let find t id = Hashtbl.find_opt t.by_id id
let domains t = t.doms
let count t = List.length t.doms
let dom_id d = d.d_id
let dom_name d = d.d_name
let dom_epoch d = d.d_epoch
let dom_regions d = d.d_regions
let dom_default_allow d = d.d_default_allow
let dom_stats d = d.d_stats
let dom_shadow_hits d = d.d_sh_hits
let dom_shadow_misses d = d.d_sh_misses
let dom_structure d = if d.d_itree then "interval" else "linear"
let publications t = t.publications
let retired t = t.retired
let promotions t = t.promotions
let set_verify t b = t.verify <- b
let stale_allows t = t.stale

let make_instance t ~itree =
  if itree then
    Structure.I
      ((module Interval_tree), Interval_tree.create t.kernel ~capacity:t.big_capacity)
  else
    Structure.I
      ((module Linear_table), Linear_table.create t.kernel ~capacity:t.fast_capacity)

let create_domain ?name ?(default_allow = false) t =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.creates <- t.creates + 1;
  let d =
    {
      d_id = id;
      d_name = (match name with Some n -> n | None -> Printf.sprintf "dom%d" id);
      d_inst = make_instance t ~itree:false;
      d_itree = false;
      d_default_allow = default_allow;
      d_epoch = 0;
      d_regions = [];
      d_stats = { Engine.checks = 0; allowed = 0; denied = 0; entries_scanned = 0 };
      d_sh_hits = 0;
      d_sh_misses = 0;
    }
  in
  t.doms <- t.doms @ [ d ];
  Hashtbl.replace t.by_id id d;
  d

(** Tear a domain down. Its id is never reused, so shadow slots still
    tagged with it can never validate against a future domain — stale
    facts die by construction, not by a flush walk. *)
let destroy_domain t id =
  match find t id with
  | None -> false
  | Some _ ->
    t.doms <- List.filter (fun d -> d.d_id <> id) t.doms;
    Hashtbl.remove t.by_id id;
    t.destroys <- t.destroys + 1;
    t.retired <- t.retired + 1;
    true

(* ------------------------------------------------------------------ *)
(* generational mutation: build a successor, swap one pointer *)

(* Build a fresh instance holding [rs]; on Error the live generation is
   untouched. Promotion to the interval tier happens here, when the
   target region count first exceeds the fast path. *)
let build t (d : dom) rs :
    (Structure.instance * bool, Structure.add_error) result =
  let n = List.length rs in
  if n > t.big_capacity then Error (Structure.Full t.big_capacity)
  else begin
    let itree = d.d_itree || n > t.fast_capacity in
    let inst = make_instance t ~itree in
    Result.map (fun () -> (inst, itree)) (Structure.add_all inst rs)
  end

(* Install a fully-built successor: one pointer store + epoch bump, the
   same publish idiom as Engine.publish. The old generation is retired
   immediately (domain mutations are driven from ioctl context, where
   the simulated interleaving never suspends a reader mid-walk). *)
let publish t (d : dom) inst ~itree ~regions =
  if itree && not d.d_itree then begin
    t.promotions <- t.promotions + 1;
    Kernel.Klog.printk (Kernel.log t.kernel)
      "CARAT KOP domain %d (%s): promoted to interval tier (%d regions)"
      d.d_id d.d_name (List.length regions)
  end;
  d.d_inst <- inst;
  d.d_itree <- itree;
  d.d_regions <- regions;
  d.d_epoch <- d.d_epoch + 1;
  t.publications <- t.publications + 1;
  t.retired <- t.retired + 1;
  Machine.Model.store (Kernel.machine t.kernel) t.shard_vaddrs.(0) 8

(** Install [rs] into domain [id] as ONE atomic batch: readers observe
    the pre-batch policy or all of it, never a prefix, and any failure
    (capacity, malformed region) returns a typed errno with the live
    policy untouched. *)
let install_regions t ~domain rs : int =
  match find t domain with
  | None -> Kernel.einval
  | Some d -> (
    let target = d.d_regions @ rs in
    match build t d target with
    | Error e -> Structure.errno e
    | Ok (inst, itree) ->
      publish t d inst ~itree ~regions:target;
      0)

let add_region t ~domain r = install_regions t ~domain [ r ]

(** Remove the first region based at [base] — the canonical
    duplicate-base semantics — via a successor publish. *)
let remove_region t ~domain ~base : int =
  match find t domain with
  | None -> Kernel.einval
  | Some d ->
    if not (List.exists (fun (r : Region.t) -> r.Region.base = base) d.d_regions)
    then -1
    else begin
      let rec drop_first = function
        | [] -> []
        | (r : Region.t) :: rest ->
          if r.Region.base = base then rest else r :: drop_first rest
      in
      let target = drop_first d.d_regions in
      match build t d target with
      | Error e -> Structure.errno e
      | Ok (inst, itree) ->
        publish t d inst ~itree ~regions:target;
        0
    end

let set_default_allow t ~domain b : int =
  match find t domain with
  | None -> Kernel.einval
  | Some d ->
    d.d_default_allow <- b;
    d.d_epoch <- d.d_epoch + 1;
    0

(* ------------------------------------------------------------------ *)
(* checks *)

(* host-side reference: exact first-match over the authoritative mirror *)
let reference_allows (d : dom) ~addr ~size ~flags =
  let rec go = function
    | [] -> d.d_default_allow
    | (r : Region.t) :: rest ->
      if Region.contains r ~addr ~size then Region.permits r ~flags
      else go rest
  in
  go d.d_regions

(* the page's uniform protection under [d]'s policy, iff provable for
   every in-page byte range — same classification as
   Engine.page_uniform_prot, against the domain's own region order *)
let page_uniform_prot (d : dom) page =
  let lo = page lsl Shadow_table.page_bits in
  let hi = lo + Shadow_table.page_size in
  let rec go idx first_full = function
    | [] -> (
      match first_full with
      | Some ((r : Region.t), at) -> Some (r.Region.prot, at + 1)
      | None ->
        let depth = List.length d.d_regions in
        if d.d_default_allow then Some (Region.prot_rw, depth)
        else Some (0, depth))
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
  go 0 None d.d_regions

(* slot placement: multiplicative hash of (domain, page), high bits pick
   the shard, low bits the slot within it *)
let slot_of ~domain ~page =
  let h = (domain * 0x9E3779B1) lxor (page * 0x85EBCA6B) in
  let h = h lxor (h lsr 15) in
  ((h lsr 16) land (shard_count - 1), h land (shard_slots - 1))

(* exact walk + slot refill on behalf of [check] *)
let check_slow t (d : dom) sl ~page ~single_page ~addr ~size ~flags =
  let machine = Kernel.machine t.kernel in
  let out = Structure.lookup d.d_inst ~addr ~size in
  d.d_stats.Engine.checks <- d.d_stats.Engine.checks + 1;
  d.d_stats.Engine.entries_scanned <-
    d.d_stats.Engine.entries_scanned + out.Structure.scanned;
  let allowed =
    match out.Structure.matched with
    | Some r ->
      Machine.Model.retire machine 2;
      Region.permits r ~flags
    | None -> d.d_default_allow
  in
  if allowed then d.d_stats.Engine.allowed <- d.d_stats.Engine.allowed + 1
  else d.d_stats.Engine.denied <- d.d_stats.Engine.denied + 1;
  if allowed && t.verify && not (reference_allows d ~addr ~size ~flags) then
    t.stale <- t.stale + 1;
  (* refill: cacheable only when the access stays on one page and the
     page's protection is uniform under this domain *)
  if single_page then begin
    match page_uniform_prot d page with
    | None -> ()
    | Some (prot, depth) ->
      sl.sl_dom <- d.d_id;
      sl.sl_page <- page;
      sl.sl_epoch <- d.d_epoch;
      sl.sl_prot <- prot;
      sl.sl_depth <- depth;
      Machine.Model.retire machine 2
  end;
  allowed

(** The multi-domain guard check: sharded-shadow probe, then the
    domain's exact structure. Decision-identical to the first-match walk
    over the domain's policy (pinned by the paranoid verifier). Unknown
    domains deny. *)
let check t ~domain ~addr ~size ~flags : bool =
  match find t domain with
  | None -> false
  | Some d ->
    let machine = Kernel.machine t.kernel in
    (* prologue: domain resolution + argument marshalling *)
    Machine.Model.retire machine 4;
    let page = addr lsr Shadow_table.page_bits in
    let single_page =
      size > 0 && (addr + size - 1) lsr Shadow_table.page_bits = page
    in
    let shard, idx = slot_of ~domain ~page in
    let sl = t.shards.(shard).(idx) in
    (* one probe of the slot's tag word + validation *)
    Machine.Model.load machine (t.shard_vaddrs.(shard) + (idx * slot_bytes)) 8;
    Machine.Model.retire machine 2;
    let hit =
      sl.sl_dom = domain && sl.sl_page = page && sl.sl_epoch = d.d_epoch
      && single_page && flags <> 0
    in
    Machine.Model.branch machine
      ~pc:t.shard_pcs.(shard).(idx)
      ~taken:hit;
    if hit && flags land sl.sl_prot = flags then begin
      d.d_sh_hits <- d.d_sh_hits + 1;
      d.d_stats.Engine.checks <- d.d_stats.Engine.checks + 1;
      d.d_stats.Engine.allowed <- d.d_stats.Engine.allowed + 1;
      d.d_stats.Engine.entries_scanned <-
        d.d_stats.Engine.entries_scanned + sl.sl_depth;
      if t.verify && not (reference_allows d ~addr ~size ~flags) then
        t.stale <- t.stale + 1;
      true
    end
    else begin
      d.d_sh_misses <- d.d_sh_misses + 1;
      check_slow t d sl ~page ~single_page ~addr ~size ~flags
    end

(* ------------------------------------------------------------------ *)
(* observability *)

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "domains: %d live (%d created, %d destroyed), %d publications, %d \
        retired, %d tier promotions\n"
       (count t) t.creates t.destroys t.publications t.retired t.promotions);
  Buffer.add_string b
    (Printf.sprintf "shadow: %d shards x %d slots\n" shard_count shard_slots);
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf
           "dom %d (%s): structure=%s regions=%d epoch=%d default=%s \
            checks=%d allowed=%d denied=%d sh_hits=%d sh_misses=%d\n"
           d.d_id d.d_name (dom_structure d)
           (List.length d.d_regions)
           d.d_epoch
           (if d.d_default_allow then "allow" else "deny")
           d.d_stats.Engine.checks d.d_stats.Engine.allowed
           d.d_stats.Engine.denied d.d_sh_hits d.d_sh_misses))
    t.doms;
  Buffer.contents b
