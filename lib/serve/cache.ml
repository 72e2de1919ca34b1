type key = { digest : int64; length : int; tile : int; discard : int }

type t = (key, Jpeg2000.Tile.t) Lru.t

let digest s = Fnv.string Fnv.basis s
let create ~capacity = Lru.create ~capacity ()
let find = Lru.find
let add = Lru.add
let stats = Lru.stats
let length = Lru.length
let capacity = Lru.capacity
