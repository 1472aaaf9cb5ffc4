(** The paper's evaluated policy structure (§3.1): a fixed table of at
    most 64 regions, scanned linearly on every guard. "A table was chosen
    in order to minimize pointer chasing, lending speedup over other
    implementations like the Linux kernel's red-black tree (even though
    the tree would have O(log n) time complexity)."

    Entries are 24 bytes (base, length, protection flags) laid out
    contiguously in kernel memory, so consecutive probes walk cache lines
    in order and the per-entry branch is highly predictable — the
    mechanism behind the paper's "cache-friendly linear search". *)

let default_capacity = 64
let entry_size = 24

type t = {
  kernel : Kernel.t;
  base_vaddr : int;
  capacity : int;
  mutable entries : Region.t array;  (** mirror of kernel memory, in order *)
  mutable n : int;
  group_pc : int array;  (** branch-site id of each 8-entry group *)
  exit_pc : int;  (** branch-site id of the loop exit *)
}

let name = "linear"

let create kernel ~capacity =
  let base_vaddr = Kernel.kmalloc kernel ~size:(capacity * entry_size) in
  {
    kernel;
    base_vaddr;
    capacity;
    entries = Array.make capacity (Region.v ~base:0 ~len:1 ~prot:0 ());
    n = 0;
    group_pc =
      Array.init ((capacity + 7) / 8) (fun g ->
          Structure.branch_site ("lin", base_vaddr, g));
    exit_pc = Structure.branch_site ("lin-exit", base_vaddr);
  }

let entry_addr t i = t.base_vaddr + (i * entry_size)

let write_entry t i (r : Region.t) =
  let a = entry_addr t i in
  Kernel.write t.kernel ~addr:a ~size:8 r.Region.base;
  Kernel.write t.kernel ~addr:(a + 8) ~size:8 r.Region.len;
  Kernel.write t.kernel ~addr:(a + 16) ~size:8 r.Region.prot

let add t r =
  if t.n >= t.capacity then Error (Structure.Full t.capacity)
  else begin
    write_entry t t.n r;
    t.entries.(t.n) <- r;
    t.n <- t.n + 1;
    Ok ()
  end

(* the value parked in vacated slots: never matches any lookup and keeps
   the kernel-memory image byte-identical to the [entries] mirror *)
let hole = Region.v ~base:0 ~len:1 ~prot:0 ()

let remove t ~base =
  (* remove the FIRST entry whose base matches — the canonical
     duplicate-base semantics shared by every structure kind *)
  let rec find i =
    if i >= t.n then None
    else if t.entries.(i).Region.base = base then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
    for j = i to t.n - 2 do
      t.entries.(j) <- t.entries.(j + 1);
      write_entry t j t.entries.(j)
    done;
    t.n <- t.n - 1;
    (* scrub the vacated slot in both the mirror and kernel memory; a
       stale trailing entry readable via Kernel.read is exactly the kind
       of leak a table-bounds bug would turn into a bogus allow *)
    t.entries.(t.n) <- hole;
    write_entry t t.n hole;
    true

let clear t = t.n <- 0
let count t = t.n
let regions t = Array.to_list (Array.sub t.entries 0 t.n)

let lookup t ~addr ~size : Structure.outcome =
  (* The scan is modelled after an unrolled, cache-friendly compare loop:
     one probe load and one compare per entry (pipelined), with a control
     branch only once per 8-entry group — the "optimized for cache-
     friendly search" structure §3.1 describes. *)
  let machine = Kernel.machine t.kernel in
  let rec scan i =
    if i >= t.n then begin
      (* loop exit branch *)
      Machine.Model.branch machine ~pc:t.exit_pc ~taken:false;
      { Structure.matched = None; scanned = t.n }
    end
    else begin
      (* one 8-byte probe of the entry; the mirror supplies the decoded
         region (same value) without re-reading all three words *)
      ignore (Kernel.read t.kernel ~addr:(entry_addr t i) ~size:8);
      Machine.Model.retire machine 1;
      let r = t.entries.(i) in
      let hit = Region.contains r ~addr ~size in
      (* group branch: highly predictable (taken only in the matching
         group) *)
      if i land 7 = 0 || hit then
        Machine.Model.branch machine ~pc:t.group_pc.(i lsr 3) ~taken:hit;
      if hit then { Structure.matched = Some r; scanned = i + 1 }
      else scan (i + 1)
    end
  in
  scan 0

let table_region t = Some (t.base_vaddr, t.capacity * entry_size)

type Structure.repr += Linear of t

let repr t = Linear t

(** Fault injection: flip the protection bits of the entry whose base is
    [base] in the decode mirror — the word the lookup's verdict actually
    comes from, i.e. what a wild write into the region table corrupts.
    Deliberately bypasses {!write_entry} and the engine's epoch, exactly
    like an ungoverned store would; only the integrity digest can tell.
    Returns [false] when no entry matches. *)
let corrupt_entry t ~base ~prot =
  let rec find i =
    if i >= t.n then None
    else if t.entries.(i).Region.base = base then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
    let r = t.entries.(i) in
    t.entries.(i) <-
      Region.v ~tag:r.Region.tag ~base:r.Region.base ~len:r.Region.len ~prot ();
    true
