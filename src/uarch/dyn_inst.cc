#include "uarch/dyn_inst.hh"

namespace tcfill
{

void
destroyDynInst(DynInst *p)
{
    SlabArena *arena = p->ptrArena;
    p->~DynInst();
    arena->deallocate(p);
}

} // namespace tcfill
