type 'a t = {
  before : 'a -> 'a -> bool;
  dummy : 'a;  (* the filler of every slot at or past [size] *)
  mutable data : 'a array;
  mutable size : int;
  hint : int;
}

(* A [capacity] hint takes effect on the first push: [grow] jumps
   straight to the hint instead of walking the doubling ladder (and its
   grow-copies) up from 16.  Vacant slots hold [dummy], never a popped
   element, so the heap keeps nothing reachable that it no longer holds. *)
let create ?(capacity = 0) ~before ~dummy () =
  { before; dummy; data = [||]; size = 0; hint = capacity }

let length h = h.size
let is_empty h = h.size = 0

(* The new array is made full of [x], the element about to go in at
   [size], and only then are the slots past it given the dummy.  When the
   array is too large for the minor heap and [x] is young, [Array.make]
   first promotes [x] with a minor collection.  The heap has always paid
   those collections; a dummy-filled [Array.make] skips them, and that
   shifts the collector's pacing enough to move a program's peak memory
   (DESIGN.md §13, "One binary heap"). *)
let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then max 16 h.hint else cap * 2 in
    let ndata = Array.make ncap x in
    Array.fill ndata (h.size + 1) (ncap - h.size - 1) h.dummy;
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.before h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.before h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && h.before h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- h.dummy;
    if h.size > 0 then sift_down h 0;
    Some top
  end

let peek h = if h.size = 0 then None else Some h.data.(0)

let iter f h =
  for i = 0 to h.size - 1 do
    f h.data.(i)
  done
