"""Direct georeferencing: orbit propagation, attitude, camera geometry,
ellipsoid intersection, geolocation grids, and error statistics."""
