(* The segment tracker's B-tree (paper §8.1: "a B-Tree map using the
   start of each segment as the key").

   An entry is three ints: a key and two payloads, [stop] and [owner].
   The segment map keys each segment by its start; the coldest index
   keys by a packed (owner, start) and leaves the payloads 0.  A node
   holds its entries in three int arrays and its children in a plain
   array, empty in a leaf, so there is no option and no per-entry
   record.

   Everything works in place.  A lookup leaves the entry it found in
   the tree's cursor fields instead of returning a tuple; descents are
   loops, walks and splices plain recursion.  Insertion splits a node
   only when it overflows and deletion rebalances one only when it
   underflows, both on the way back up, so the only allocation is the
   node a split makes. *)

(* Minimum degree: nodes hold between d-1 and 2d-1 entries (the root
   excepted), internal ones one child more.  Arrays have one spare
   slot, so an insertion lands first and the split comes after. *)
let degree = 8

let max_keys = (2 * degree) - 1
let min_keys = degree - 1

type node = {
  mutable n : int;
  keys : int array;
  stops : int array;
  owners : int array;
  kids : node array; (* [max_keys + 2] slots, or none in a leaf *)
}

type t = {
  mutable root : node;
  mutable size : int;
  mutable key : int;
  mutable stop : int;
  mutable owner : int;
  mutable seen : int;
  mutable at : node; (* the finger: the node of the last lookup or change *)
}

let leaf x = Array.length x.kids = 0

let make_node kids =
  {
    n = 0;
    keys = Array.make (max_keys + 1) 0;
    stops = Array.make (max_keys + 1) 0;
    owners = Array.make (max_keys + 1) 0;
    kids;
  }

(* What a child slot past the last child holds, so that no node keeps
   a node it lost alive. *)
let nil = make_node [||]

let inner () = make_node (Array.make (max_keys + 2) nil)

let create () =
  let root = make_node [||] in
  { root; size = 0; key = 0; stop = 0; owner = 0; seen = 0; at = root }

(* Index of the first key in [x] that is >= k, in [0, x.n]. *)
let lower_bound x k =
  let lo = ref 0 and hi = ref x.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get x.keys mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let found tr x i =
  tr.at <- x;
  tr.key <- x.keys.(i);
  tr.stop <- x.stops.(i);
  tr.owner <- x.owners.(i)

(* A leaf holds every key of the tree between its first and its last,
   so a key in that span of the finger's leaf is found, put or removed
   there with no descent.  That is the common case: a write probes and
   changes the entries around one segment.  A leaf merged away is
   emptied, so a stale finger misses. *)
let near tr k =
  let x = tr.at in
  leaf x && x.n > 0 && x.keys.(0) <= k && k <= x.keys.(x.n - 1)

(* --- Lookups ----------------------------------------------------------- *)

(* The entry with the largest key <= k into the cursor; false when there
   is none.  A match in an inner node ends the descent, and so does a
   leaf: the best candidate so far is the answer. *)
let floor tr k =
  if near tr k then begin
    let x = tr.at in
    let i = lower_bound x k in
    found tr x (if x.keys.(i) = k then i else i - 1);
    true
  end
  else begin
    let x = ref tr.root and bx = ref tr.root and bi = ref (-1) and go = ref true in
    while !go do
      let y = !x in
      let i = lower_bound y k in
      if i < y.n && y.keys.(i) = k then (bx := y; bi := i; go := false)
      else begin
        if i > 0 then (bx := y; bi := i - 1);
        if leaf y then go := false else x := y.kids.(i)
      end
    done;
    !bi >= 0 && (found tr !bx !bi; true)
  end

(* The entry with the smallest key >= k into the cursor; false when
   there is none. *)
let ceil tr k =
  if near tr k then (found tr tr.at (lower_bound tr.at k); true)
  else begin
    let x = ref tr.root and bx = ref tr.root and bi = ref (-1) and go = ref true in
    while !go do
      let y = !x in
      let i = lower_bound y k in
      if i < y.n then (bx := y; bi := i);
      if (i < y.n && y.keys.(i) = k) || leaf y then go := false
      else x := y.kids.(i)
    done;
    !bi >= 0 && (found tr !bx !bi; true)
  end

(* --- Walks ------------------------------------------------------------- *)

(* In order from the first key >= lo, calling [f] on each entry clipped
   to [start, stop) while its key is below [stop]; false once an entry
   at or past [stop] ends the walk.  [tr.seen] counts the entries
   looked at, that one included. *)
let rec walk_from tr x lo start stop f =
  let i = lower_bound x lo in
  (leaf x || (i < x.n && x.keys.(i) = lo) || walk_from tr x.kids.(i) lo start stop f)
  && walk_on tr x i start stop f

and walk_on tr x i start stop f =
  i >= x.n
  || (let k = x.keys.(i) in
      tr.seen <- tr.seen + 1;
      k < stop
      && begin
        let e = x.stops.(i) in
        f (if k > start then k else start) (if e < stop then e else stop) x.owners.(i);
        (leaf x || walk_all tr x.kids.(i + 1) start stop f)
        && walk_on tr x (i + 1) start stop f
      end)

and walk_all tr x start stop f =
  (leaf x || walk_all tr x.kids.(0) start stop f) && walk_on tr x 0 start stop f

(* The walk counts into [seen] and gives back what an outer walk of the
   same tree had counted, so [f] may walk the tree too. *)
let walk tr ~start ~stop f =
  let outer = tr.seen in
  let lo = if floor tr start then tr.key else min_int in
  tr.seen <- 0;
  ignore (walk_from tr tr.root lo start stop f);
  let seen = tr.seen in
  tr.seen <- outer;
  seen

(* --- Insertion --------------------------------------------------------- *)

let move src i dst j =
  dst.keys.(j) <- src.keys.(i);
  dst.stops.(j) <- src.stops.(i);
  dst.owners.(j) <- src.owners.(i)

(* Put an entry at [i] of [x], with [right] as the child after it in an
   inner node. *)
let put x i k s o right =
  for j = x.n - 1 downto i do move x j x (j + 1) done;
  x.keys.(i) <- k;
  x.stops.(i) <- s;
  x.owners.(i) <- o;
  if not (leaf x) then begin
    for j = x.n downto i + 1 do x.kids.(j + 1) <- x.kids.(j) done;
    x.kids.(i + 1) <- right
  end;
  x.n <- x.n + 1

(* [c], child [i] of [x], overflowed: its upper half moves to a new
   node and its median up into [x]. *)
let split x i c =
  let z = if leaf c then make_node [||] else inner () in
  let d = degree in
  for j = d to max_keys do move c j z (j - d) done;
  if not (leaf c) then
    for j = d to max_keys + 1 do
      z.kids.(j - d) <- c.kids.(j);
      c.kids.(j) <- nil
    done;
  z.n <- d;
  c.n <- d - 1;
  put x i c.keys.(d - 1) c.stops.(d - 1) c.owners.(d - 1) z

(* Insert or replace under [x]; true when [x] overflowed. *)
let rec insert tr x k s o =
  let i = lower_bound x k in
  if i < x.n && x.keys.(i) = k then begin
    x.stops.(i) <- s;
    x.owners.(i) <- o;
    false
  end
  else if leaf x then begin
    tr.size <- tr.size + 1;
    tr.at <- x;
    put x i k s o x;
    x.n > max_keys
  end
  else insert tr x.kids.(i) k s o && (split x i x.kids.(i); x.n > max_keys)

(* A key near the finger goes straight into its leaf when that leaf
   has room, or is already there. *)
let add tr k ~stop ~owner =
  let x = tr.at in
  if near tr k && (x.n < max_keys || x.keys.(lower_bound x k) = k) then
    ignore (insert tr x k stop owner)
  else if insert tr tr.root k stop owner then begin
    let r = inner () in
    r.kids.(0) <- tr.root;
    split r 0 tr.root;
    tr.root <- r
  end

(* --- Deletion ---------------------------------------------------------- *)

let drop x i =
  for j = i to x.n - 2 do move x (j + 1) x j done;
  if not (leaf x) then begin
    for j = i + 1 to x.n - 1 do x.kids.(j) <- x.kids.(j + 1) done;
    x.kids.(x.n) <- nil
  end;
  x.n <- x.n - 1

(* Child [i + 1] of [x] and the separator [i] join child [i]. *)
let merge x i =
  let l = x.kids.(i) and r = x.kids.(i + 1) in
  move x i l l.n;
  for j = 0 to r.n - 1 do move r j l (l.n + 1 + j) done;
  if not (leaf l) then for j = 0 to r.n do l.kids.(l.n + 1 + j) <- r.kids.(j) done;
  l.n <- l.n + 1 + r.n;
  r.n <- 0;
  drop x i

(* Child [i] of [x] may have lost an entry: if it is below the minimum,
   borrow through a separator from a sibling that can spare one, else
   merge it with a sibling. *)
let rebalance x i =
  let c = x.kids.(i) in
  if c.n < min_keys then
    if i > 0 && x.kids.(i - 1).n > min_keys then begin
      let l = x.kids.(i - 1) in
      put c 0 x.keys.(i - 1) x.stops.(i - 1) x.owners.(i - 1)
        (if leaf c then c else c.kids.(0));
      if not (leaf c) then begin
        c.kids.(0) <- l.kids.(l.n);
        l.kids.(l.n) <- nil
      end;
      move l (l.n - 1) x (i - 1);
      l.n <- l.n - 1
    end
    else if i < x.n && x.kids.(i + 1).n > min_keys then begin
      let r = x.kids.(i + 1) in
      move x i c c.n;
      if not (leaf c) then c.kids.(c.n + 1) <- r.kids.(0);
      c.n <- c.n + 1;
      move r 0 x i;
      if not (leaf r) then r.kids.(0) <- r.kids.(1);
      drop r 0
    end
    else merge x (if i > 0 then i - 1 else i)

(* Move the largest entry under [x] into slot [i] of [dst]. *)
let rec pop_max x dst i =
  if leaf x then begin
    move x (x.n - 1) dst i;
    x.n <- x.n - 1
  end
  else begin
    let last = x.n in
    pop_max x.kids.(last) dst i;
    rebalance x last
  end

(* Remove the smallest key in [lo, hi) under [x], into the cursor;
   false when there is none.  An inner entry is replaced by its
   predecessor, which lies below [lo]. *)
let rec remove_in tr x lo hi =
  let i = lower_bound x lo in
  let here = i < x.n && x.keys.(i) < hi in
  if leaf x then here && (found tr x i; drop x i; true)
  else if ((not here) || x.keys.(i) > lo) && remove_in tr x.kids.(i) lo hi then
    (rebalance x i; true)
  else
    here
    && begin
      found tr x i;
      pop_max x.kids.(i) x i;
      rebalance x i;
      true
    end

(* A leaf above the minimum loses an entry without rebalancing. *)
let remove_first tr ~lo ~hi =
  let x = tr.at in
  let removed =
    if near tr lo && x.n > min_keys then begin
      let i = lower_bound x lo in
      x.keys.(i) < hi && (found tr x i; drop x i; true)
    end
    else remove_in tr tr.root lo hi
  in
  if removed then begin
    tr.size <- tr.size - 1;
    if tr.root.n = 0 && not (leaf tr.root) then tr.root <- tr.root.kids.(0)
  end;
  removed

let remove tr k = ignore (remove_first tr ~lo:k ~hi:(k + 1))

(* --- Validation (test support) ----------------------------------------- *)

(* Check key order, node fill, balance and the entry count; returns the
   depth.  Raises [Failure] on violation. *)
let validate tr =
  let count = ref 0 in
  let rec go x ~root ~lo ~hi =
    if (not root) && x.n < min_keys then failwith "Btree: underfull node";
    if x.n > max_keys then failwith "Btree: overfull node";
    count := !count + x.n;
    for i = 0 to x.n - 1 do
      let k = x.keys.(i) in
      if k <= (if i = 0 then lo else x.keys.(i - 1)) || k >= hi then
        failwith "Btree: keys out of order"
    done;
    if leaf x then 1
    else begin
      let d = go x.kids.(0) ~root:false ~lo ~hi:(if x.n = 0 then hi else x.keys.(0)) in
      for i = 1 to x.n do
        let hi = if i = x.n then hi else x.keys.(i) in
        if go x.kids.(i) ~root:false ~lo:x.keys.(i - 1) ~hi <> d then
          failwith "Btree: unbalanced"
      done;
      d + 1
    end
  in
  let d = go tr.root ~root:true ~lo:min_int ~hi:max_int in
  if !count <> tr.size then failwith "Btree: size differs from the entries";
  d
