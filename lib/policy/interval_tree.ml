(** Augmented interval tree — the large-domain fallback tier (§4.2's
    "other implementations like the Linux kernel's red-black tree",
    upgraded the way the kernel's own vma tree is: each node carries the
    maximum region limit of its subtree, so a stabbing query prunes every
    subtree that provably ends before the probed address).

    Unlike the splay tree, this one represents
    overlapping and duplicate-base regions: nodes carry their insertion
    sequence number and [lookup] answers the containing region with the
    smallest sequence — exactly the linear table's first-match-wins
    semantics, at O(log n) probes. That makes it the only O(log n)
    structure that is a drop-in semantic replacement for the evaluated
    linear table, which is why {!Domain} promotes a domain to it once the
    64-entry fast path overflows.

    Nodes live in kernel memory (64 bytes: region triple, left, right,
    color, max-limit, seq), so lookups pay genuine pointer chasing and
    data-dependent branches against the cache and predictor models. *)

type color = Red | Black

type node = {
  mutable region : Region.t;
  mutable left : node option;
  mutable right : node option;
  mutable color : color;
  mutable maxlim : int;  (** max [Region.limit] over this subtree *)
  seq : int;  (** insertion order; first-match = smallest containing seq *)
  vaddr : int;
}

type t = {
  kernel : Kernel.t;
  mutable root : node option;
  mutable n : int;
  mutable next_seq : int;
  capacity : int;
}

let name = "interval"
let node_size = 64

let create kernel ~capacity =
  { kernel; root = None; n = 0; next_seq = 0; capacity }

let touch_node t (n : node) =
  ignore (Kernel.read t.kernel ~addr:n.vaddr ~size:8);
  Machine.Model.retire (Kernel.machine t.kernel) 2

let maxlim_of = function None -> min_int | Some (n : node) -> n.maxlim

let update_maxlim (n : node) =
  n.maxlim <-
    max (Region.limit n.region) (max (maxlim_of n.left) (maxlim_of n.right))

let write_node t (n : node) =
  Kernel.write t.kernel ~addr:(n.vaddr + 24) ~size:8
    (match n.left with Some l -> l.vaddr | None -> 0);
  Kernel.write t.kernel ~addr:(n.vaddr + 32) ~size:8
    (match n.right with Some r -> r.vaddr | None -> 0);
  Kernel.write t.kernel ~addr:(n.vaddr + 40) ~size:8
    (match n.color with Red -> 1 | Black -> 0);
  Kernel.write t.kernel ~addr:(n.vaddr + 48) ~size:8 n.maxlim

let is_red = function Some { color = Red; _ } -> true | _ -> false

(* left-leaning red-black insertion (Sedgewick), with the max-limit
   augmentation re-derived bottom-up through every rotation *)
let rotate_left t h =
  match h.right with
  | None -> h
  | Some x ->
    h.right <- x.left;
    x.left <- Some h;
    x.color <- h.color;
    h.color <- Red;
    update_maxlim h;
    update_maxlim x;
    write_node t h;
    write_node t x;
    x

let rotate_right t h =
  match h.left with
  | None -> h
  | Some x ->
    h.left <- x.right;
    x.right <- Some h;
    x.color <- h.color;
    h.color <- Red;
    update_maxlim h;
    update_maxlim x;
    write_node t h;
    write_node t x;
    x

let flip_colors t h =
  h.color <- Red;
  (match h.left with Some l -> l.color <- Black | None -> ());
  (match h.right with Some r -> r.color <- Black | None -> ());
  write_node t h

let fixup t h =
  let h = if is_red h.right && not (is_red h.left) then rotate_left t h else h in
  let h =
    if is_red h.left && (match h.left with Some l -> is_red l.left | None -> false)
    then rotate_right t h
    else h
  in
  if is_red h.left && is_red h.right then flip_colors t h;
  h

let rec insert_node t (cur : node option) (nw : node) : node =
  match cur with
  | None -> nw
  | Some c ->
    (* duplicates and overlaps are representable: equal bases go right,
       so no insert can fail once capacity admits it *)
    if nw.region.Region.base < c.region.Region.base then
      c.left <- Some (insert_node t c.left nw)
    else c.right <- Some (insert_node t c.right nw);
    update_maxlim c;
    write_node t c;
    fixup t c

let add t (r : Region.t) =
  if t.n >= t.capacity then Error (Structure.Full t.capacity)
  else begin
    let vaddr = Kernel.kmalloc t.kernel ~size:node_size in
    Kernel.write t.kernel ~addr:vaddr ~size:8 r.Region.base;
    Kernel.write t.kernel ~addr:(vaddr + 8) ~size:8 r.Region.len;
    Kernel.write t.kernel ~addr:(vaddr + 16) ~size:8 r.Region.prot;
    let nw =
      {
        region = r;
        left = None;
        right = None;
        color = Red;
        maxlim = Region.limit r;
        seq = t.next_seq;
        vaddr;
      }
    in
    t.next_seq <- t.next_seq + 1;
    let root = insert_node t t.root nw in
    root.color <- Black;
    t.root <- Some root;
    t.n <- t.n + 1;
    Ok ()
  end

let rec fold f acc = function
  | None -> acc
  | Some n -> fold f (f (fold f acc n.left) n) n.right

(* insertion order, so Engine.reference_allows / page_uniform_prot see
   the same first-match order the lookup enforces *)
let regions t =
  fold (fun acc n -> n :: acc) [] t.root
  |> List.sort (fun (a : node) (b : node) -> compare a.seq b.seq)
  |> List.map (fun n -> n.region)

let count t = t.n

let clear t =
  t.root <- None;
  t.n <- 0;
  t.next_seq <- 0

let remove t ~base =
  (* rebuild without the FIRST matching node (canonical duplicate-base
     semantics); removals happen on the slow ioctl path *)
  let rs = regions t in
  if List.exists (fun r -> r.Region.base = base) rs then begin
    clear t;
    let removed = ref false in
    List.iter
      (fun (r : Region.t) ->
        if (not !removed) && r.Region.base = base then removed := true
        else
          (* a subset of regions the structure already held always fits *)
          match add t r with Ok () -> () | Error _ -> assert false)
      rs;
    true
  end
  else false

(* branch-site ids of the two descent branches per node slot, hashed
   once rather than per visit *)
let left_pcs = Array.init 256 (fun k -> Structure.branch_site ("itree-l", k))
let right_pcs = Array.init 256 (fun k -> Structure.branch_site ("itree-r", k))

let lookup t ~addr ~size : Structure.outcome =
  let machine = Kernel.machine t.kernel in
  let scanned = ref 0 in
  let best = ref None in
  let consider (c : node) =
    if Region.contains c.region ~addr ~size then
      match !best with
      | Some (b : node) when b.seq <= c.seq -> ()
      | _ -> best := Some c
  in
  (* stabbing descent: a subtree whose max limit is <= addr cannot hold a
     container; a right subtree is reachable only when this node's base
     admits addr (right bases are >= it) *)
  let rec go = function
    | None -> ()
    | Some (c : node) ->
      incr scanned;
      touch_node t c;
      let left = maxlim_of c.left > addr in
      Machine.Model.branch machine
        ~pc:left_pcs.(c.vaddr land 0xff)
        ~taken:left;
      if left then go c.left;
      consider c;
      let right = c.region.Region.base <= addr && maxlim_of c.right > addr in
      Machine.Model.branch machine
        ~pc:right_pcs.(c.vaddr land 0xff)
        ~taken:right;
      if right then go c.right
  in
  go t.root;
  match !best with
  | Some b -> { Structure.matched = Some b.region; scanned = !scanned }
  | None -> { Structure.matched = None; scanned = !scanned }

(* invariant checker for tests: red-black shape plus the max-limit
   augmentation at every node *)
let validate t : (unit, string) result =
  let rec go (cur : node option) : (int, string) result =
    match cur with
    | None -> Ok 1
    | Some c ->
      if c.color = Red && (is_red c.left || is_red c.right) then
        Error "red node with red child"
      else if
        c.maxlim
        <> max (Region.limit c.region)
             (max (maxlim_of c.left) (maxlim_of c.right))
      then Error "max-limit augmentation stale"
      else (
        match (go c.left, go c.right) with
        | Ok a, Ok b when a = b -> Ok (a + if c.color = Black then 1 else 0)
        | Ok _, Ok _ -> Error "black-height mismatch"
        | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  match t.root with
  | Some r when r.color = Red -> Error "red root"
  | _ -> ( match go t.root with Ok _ -> Ok () | Error e -> Error e)

(* nodes are individual kmalloc'd allocations; no contiguous table *)
let table_region _t = None

(* no integrity-auditable internals beyond the policy itself *)
let repr _t = Structure.Opaque
