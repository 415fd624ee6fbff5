/**
 * @file
 * Compatibility name for common/json.hh; only the triqbench sources
 * still include it, until their next change.
 */
#include "common/json.hh"
