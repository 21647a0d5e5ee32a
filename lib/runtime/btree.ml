(* A mutable B-tree map (CLRS-style, minimum degree [t]).

   The paper's segment tracker stores its non-overlapping segment list
   in "a B-Tree map using the start of each segment as the key"
   (§8.1); this module is that map, over int keys, with the operations
   the tracker needs: point lookup, predecessor ([floor]) lookup,
   in-order iteration from a key, insert and delete.  The keys are
   plain ints rather than a functor parameter so that every comparison
   on the tracker's lookup path compiles to a machine compare. *)

module Int_map = struct
  type key = int

  (* Minimum degree: nodes hold between t-1 and 2t-1 keys (root
     excepted) and internal nodes between t and 2t children. *)
  let t = 8

  let max_keys = (2 * t) - 1

  type 'v node = {
    mutable n : int; (* number of live keys *)
    keys : key array; (* length max_keys; slots >= n are stale *)
    vals : 'v array;
    children : 'v node option array; (* length max_keys + 1 *)
    mutable leaf : bool;
  }

  type 'v tree = { mutable root : 'v node option; mutable size : int }


  let create () = { root = None; size = 0 }

  let size tr = tr.size
  let is_empty tr = tr.size = 0

  let make_node ~leaf ~fill_key ~fill_val =
    {
      n = 0;
      keys = Array.make max_keys fill_key;
      vals = Array.make max_keys fill_val;
      children = Array.make (max_keys + 1) None;
      leaf;
    }

  let child x i =
    match x.children.(i) with
    | Some c -> c
    | None -> invalid_arg "Btree: missing child"

  (* Index of the first key in [x] that is >= k, in [0, x.n]. *)
  let lower_bound x k =
    let lo = ref 0 and hi = ref x.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x.keys.(mid) < k then lo := mid + 1 else hi := mid
    done;
    !lo

  (* --- Search ---------------------------------------------------------- *)

  let rec find_node x k =
    let i = lower_bound x k in
    if i < x.n && x.keys.(i) = k then Some (x.vals.(i))
    else if x.leaf then None
    else find_node (child x i) k

  let find_opt tr k =
    match tr.root with None -> None | Some r -> find_node r k

  let mem tr k = find_opt tr k <> None

  (* Largest entry with key <= k. *)
  let rec floor_node x k best =
    let i = lower_bound x k in
    if i < x.n && x.keys.(i) = k then Some (x.keys.(i), x.vals.(i))
    else
      (* keys.(i-1) < k < keys.(i); the best candidate in this node is
         keys.(i-1), but a larger one may hide in children.(i). *)
      let best =
        if i > 0 then Some (x.keys.(i - 1), x.vals.(i - 1)) else best
      in
      if x.leaf then best else floor_node (child x i) k best

  let floor tr k =
    match tr.root with None -> None | Some r -> floor_node r k None

  (* [floor] for callers that need only the value: nothing is
     allocated on the way down. *)
  let rec floor_value_node x k best =
    let i = lower_bound x k in
    if i < x.n && x.keys.(i) = k then x.vals.(i)
    else
      let best = if i > 0 then x.vals.(i - 1) else best in
      if x.leaf then best else floor_value_node (child x i) k best

  let floor_value tr k ~default =
    match tr.root with None -> default | Some r -> floor_value_node r k default

  (* The value of the smallest entry with key >= k, allocating
     nothing: the candidate at each level is the first key >= k, but a
     smaller one may hide in the child left of it. *)
  let rec ceil_value_node x k best =
    let i = lower_bound x k in
    if i < x.n && x.keys.(i) = k then x.vals.(i)
    else
      let best = if i < x.n then x.vals.(i) else best in
      if x.leaf then best else ceil_value_node (child x i) k best

  let ceil_value tr k ~default =
    match tr.root with None -> default | Some r -> ceil_value_node r k default

  let rec min_node x =
    if x.leaf then
      if x.n = 0 then None else Some (x.keys.(0), x.vals.(0))
    else min_node (child x 0)

  let min_binding tr =
    match tr.root with None -> None | Some r -> min_node r

  let rec max_node x =
    if x.leaf then
      if x.n = 0 then None else Some (x.keys.(x.n - 1), x.vals.(x.n - 1))
    else max_node (child x x.n)

  let max_binding tr =
    match tr.root with None -> None | Some r -> max_node r

  (* --- Iteration --------------------------------------------------------- *)

  exception Stop

  let rec iter_node x f =
    for i = 0 to x.n - 1 do
      if not x.leaf then iter_node (child x i) f;
      f x.keys.(i) x.vals.(i)
    done;
    if not x.leaf then iter_node (child x x.n) f

  let iter tr f = match tr.root with None -> () | Some r -> iter_node r f

  (* In-order visit of entries with key >= k; [f] returns false to
     stop. *)
  let iter_from tr k f =
    let rec go x =
      let i = lower_bound x k in
      (* Entries before index i are < k; skip them and their left
         subtrees entirely, but the subtree at index i may straddle. *)
      if not x.leaf then go (child x i);
      for j = i to x.n - 1 do
        if not (f x.keys.(j) x.vals.(j)) then raise Stop;
        if not x.leaf then
          iter_node_stop (child x (j + 1)) f
      done
    and iter_node_stop x f =
      for i = 0 to x.n - 1 do
        if not x.leaf then iter_node_stop (child x i) f;
        if not (f x.keys.(i) x.vals.(i)) then raise Stop
      done;
      if not x.leaf then iter_node_stop (child x x.n) f
    in
    match tr.root with
    | None -> ()
    | Some r -> ( try go r with Stop -> ())

  let to_list tr =
    let acc = ref [] in
    iter tr (fun k v -> acc := (k, v) :: !acc);
    List.rev !acc

  (* --- Insertion ----------------------------------------------------------- *)

  (* Split the full child [i] of non-full node [x]. *)
  let split_child x i =
    let y = child x i in
    assert (y.n = max_keys);
    let z = make_node ~leaf:y.leaf ~fill_key:y.keys.(0) ~fill_val:y.vals.(0) in
    z.n <- t - 1;
    for j = 0 to t - 2 do
      z.keys.(j) <- y.keys.(j + t);
      z.vals.(j) <- y.vals.(j + t)
    done;
    if not y.leaf then
      for j = 0 to t - 1 do
        z.children.(j) <- y.children.(j + t);
        y.children.(j + t) <- None
      done;
    y.n <- t - 1;
    (* shift x's children and keys right to make room *)
    for j = x.n downto i + 1 do
      x.children.(j + 1) <- x.children.(j)
    done;
    x.children.(i + 1) <- Some z;
    for j = x.n - 1 downto i do
      x.keys.(j + 1) <- x.keys.(j);
      x.vals.(j + 1) <- x.vals.(j)
    done;
    x.keys.(i) <- y.keys.(t - 1);
    x.vals.(i) <- y.vals.(t - 1);
    x.n <- x.n + 1

  (* Insert into a non-full subtree; returns true if a new key was
     added (false if an existing key was replaced). *)
  let rec insert_nonfull x k v =
    let i = lower_bound x k in
    if i < x.n && x.keys.(i) = k then begin
      x.vals.(i) <- v;
      false
    end
    else if x.leaf then begin
      for j = x.n - 1 downto i do
        x.keys.(j + 1) <- x.keys.(j);
        x.vals.(j + 1) <- x.vals.(j)
      done;
      x.keys.(i) <- k;
      x.vals.(i) <- v;
      x.n <- x.n + 1;
      true
    end
    else begin
      let i =
        if (child x i).n = max_keys then begin
          split_child x i;
          (* the median moved up to x.keys.(i) *)
          let c = Int.compare x.keys.(i) k in
          if c = 0 then -1 (* replace below *)
          else if c < 0 then i + 1
          else i
        end
        else i
      in
      if i = -1 then begin
        (* key equals the promoted median *)
        let j = lower_bound x k in
        x.vals.(j) <- v;
        false
      end
      else insert_nonfull (child x i) k v
    end

  let add tr k v =
    match tr.root with
    | None ->
      let r = make_node ~leaf:true ~fill_key:k ~fill_val:v in
      r.keys.(0) <- k;
      r.vals.(0) <- v;
      r.n <- 1;
      tr.root <- Some r;
      tr.size <- 1
    | Some r ->
      let r =
        if r.n = max_keys then begin
          let s = make_node ~leaf:false ~fill_key:r.keys.(0) ~fill_val:r.vals.(0) in
          s.children.(0) <- Some r;
          split_child s 0;
          tr.root <- Some s;
          s
        end
        else r
      in
      if insert_nonfull r k v then tr.size <- tr.size + 1

  (* --- Deletion ---------------------------------------------------------- *)

  (* All helpers assume the CLRS invariant: when descending into a
     child, that child has at least [t] keys (fixed up on the way
     down). *)

  let remove_from_leaf x i =
    for j = i to x.n - 2 do
      x.keys.(j) <- x.keys.(j + 1);
      x.vals.(j) <- x.vals.(j + 1)
    done;
    x.n <- x.n - 1

  (* Merge child i+1 and the separator key i into child i. *)
  let merge_children x i =
    let y = child x i and z = child x (i + 1) in
    y.keys.(y.n) <- x.keys.(i);
    y.vals.(y.n) <- x.vals.(i);
    for j = 0 to z.n - 1 do
      y.keys.(y.n + 1 + j) <- z.keys.(j);
      y.vals.(y.n + 1 + j) <- z.vals.(j)
    done;
    if not y.leaf then
      for j = 0 to z.n do
        y.children.(y.n + 1 + j) <- z.children.(j)
      done;
    y.n <- y.n + 1 + z.n;
    for j = i to x.n - 2 do
      x.keys.(j) <- x.keys.(j + 1);
      x.vals.(j) <- x.vals.(j + 1)
    done;
    for j = i + 1 to x.n - 1 do
      x.children.(j) <- x.children.(j + 1)
    done;
    x.children.(x.n) <- None;
    x.n <- x.n - 1

  (* Ensure child [i] of [x] has at least t keys, borrowing from a
     sibling or merging.  Returns the (possibly changed) index of the
     child to descend into. *)
  let fixup_child x i =
    let c = child x i in
    if c.n >= t then i
    else if i > 0 && (child x (i - 1)).n >= t then begin
      (* borrow from the left sibling through the separator *)
      let left = child x (i - 1) in
      for j = c.n - 1 downto 0 do
        c.keys.(j + 1) <- c.keys.(j);
        c.vals.(j + 1) <- c.vals.(j)
      done;
      if not c.leaf then
        for j = c.n downto 0 do
          c.children.(j + 1) <- c.children.(j)
        done;
      c.keys.(0) <- x.keys.(i - 1);
      c.vals.(0) <- x.vals.(i - 1);
      if not c.leaf then c.children.(0) <- left.children.(left.n);
      if not left.leaf then left.children.(left.n) <- None;
      x.keys.(i - 1) <- left.keys.(left.n - 1);
      x.vals.(i - 1) <- left.vals.(left.n - 1);
      left.n <- left.n - 1;
      c.n <- c.n + 1;
      i
    end
    else if i < x.n && (child x (i + 1)).n >= t then begin
      (* borrow from the right sibling *)
      let right = child x (i + 1) in
      c.keys.(c.n) <- x.keys.(i);
      c.vals.(c.n) <- x.vals.(i);
      if not c.leaf then c.children.(c.n + 1) <- right.children.(0);
      x.keys.(i) <- right.keys.(0);
      x.vals.(i) <- right.vals.(0);
      for j = 0 to right.n - 2 do
        right.keys.(j) <- right.keys.(j + 1);
        right.vals.(j) <- right.vals.(j + 1)
      done;
      if not right.leaf then begin
        for j = 0 to right.n - 1 do
          right.children.(j) <- right.children.(j + 1)
        done;
        right.children.(right.n) <- None
      end;
      right.n <- right.n - 1;
      c.n <- c.n + 1;
      i
    end
    else if i > 0 then begin
      merge_children x (i - 1);
      i - 1
    end
    else begin
      merge_children x i;
      i
    end

  let rec remove_node x k =
    let i = lower_bound x k in
    if i < x.n && x.keys.(i) = k then
      if x.leaf then begin
        remove_from_leaf x i;
        true
      end
      else begin
        let left = child x i and right = child x (i + 1) in
        if left.n >= t then begin
          (* replace by predecessor, then delete it below *)
          match max_node left with
          | Some (pk, pv) ->
            x.keys.(i) <- pk;
            x.vals.(i) <- pv;
            let j = fixup_child x i in
            ignore (remove_node (child x j) pk);
            true
          | None -> assert false
        end
        else if right.n >= t then begin
          match min_node right with
          | Some (sk, sv) ->
            x.keys.(i) <- sk;
            x.vals.(i) <- sv;
            let j = fixup_child x (i + 1) in
            ignore (remove_node (child x j) sk);
            true
          | None -> assert false
        end
        else begin
          merge_children x i;
          remove_node (child x i) k
        end
      end
    else if x.leaf then false
    else begin
      let j = fixup_child x i in
      (* after fixup the key may have moved into x itself *)
      let i2 = lower_bound x k in
      if i2 < x.n && x.keys.(i2) = k then remove_node x k
      else remove_node (child x (min j (x.n))) k
    end

  let remove tr k =
    match tr.root with
    | None -> ()
    | Some r ->
      if remove_node r k then begin
        tr.size <- tr.size - 1;
        if r.n = 0 then tr.root <- (if r.leaf then None else r.children.(0))
      end
      else if r.n = 0 && not r.leaf then tr.root <- r.children.(0)

  (* --- Validation (test support) ------------------------------------------- *)

  (* Check the B-tree invariants; returns the depth. *)
  let validate tr =
    let rec go x ~is_root ~lo ~hi =
      if not is_root && x.n < t - 1 then failwith "Btree: underfull node";
      if x.n > max_keys then failwith "Btree: overfull node";
      for i = 0 to x.n - 2 do
        if x.keys.(i) >= x.keys.(i + 1) then
          failwith "Btree: keys out of order"
      done;
      (match lo with
       | Some l ->
         if x.n > 0 && x.keys.(0) <= l then
           failwith "Btree: key below lower bound"
       | None -> ());
      (match hi with
       | Some h ->
         if x.n > 0 && x.keys.(x.n - 1) >= h then
           failwith "Btree: key above upper bound"
       | None -> ());
      if x.leaf then 1
      else begin
        let depths =
          List.init (x.n + 1) (fun i ->
              let lo = if i = 0 then lo else Some x.keys.(i - 1) in
              let hi = if i = x.n then hi else Some x.keys.(i) in
              go (child x i) ~is_root:false ~lo ~hi)
        in
        match depths with
        | d :: rest ->
          if List.exists (fun d' -> d' <> d) rest then
            failwith "Btree: unbalanced";
          d + 1
        | [] -> 1
      end
    in
    match tr.root with
    | None -> 0
    | Some r -> go r ~is_root:true ~lo:None ~hi:None
end
