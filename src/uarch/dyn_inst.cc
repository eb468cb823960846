#include "uarch/dyn_inst.hh"

namespace tcfill
{

void
destroyDynInst(DynInst *p)
{
    if (SlabArena *arena = p->ptrArena) {
        p->~DynInst();
        arena->deallocate(p);
    } else {
        delete p;
    }
}

} // namespace tcfill
