"""Start a test cold: clear_teslab_caches() empties every lru_cache of the
loaded teslab modules, whatever their names, so a test that needs no warm
state names none of them."""

from teslab import verify


def clear_teslab_caches():
    for fn in verify._lru_caches().values():
        fn.cache_clear()
