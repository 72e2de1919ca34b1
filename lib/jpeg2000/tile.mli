(** Tiling.

    JPEG 2000 processes images as tiles — "small parts of the image,
    more manageable and more adapted to a pipelined computation".
    A tile carries one rectangle of every component plane. *)

type t = {
  index : int;  (** raster order index *)
  x0 : int;
  y0 : int;  (** position of the tile in the image *)
  planes : Image.plane array;  (** one rectangle per component *)
}

val tile_grid : image_w:int -> image_h:int -> tile_w:int -> tile_h:int -> int * int
(** Number of tile columns and rows. *)

val split : Image.t -> tile_w:int -> tile_h:int -> t list
(** Cuts the image into tiles in raster order; border tiles are
    smaller. Raises [Invalid_argument] on non-positive tile size. *)

val assemble :
  width:int -> height:int -> components:int -> ?bit_depth:int -> t list -> Image.t
(** Rebuilds an image from tiles produced by {!split} (any order). *)

val crop :
  x:int -> y:int -> w:int -> h:int -> components:int -> ?bit_depth:int ->
  t list -> Image.t
(** The [w]x[h] window at image position ([x], [y]) cut out of the
    given tiles: each tile contributes the rectangle where it overlaps
    the window, one row copy per plane line. Window pixels no tile
    covers stay zero. *)

val width : t -> int
val height : t -> int
val components : t -> int
val samples : t -> int
(** Total sample count across all components — the serialisation
    payload size of the tile. *)
